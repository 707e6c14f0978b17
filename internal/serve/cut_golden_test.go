package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"churnlb/internal/policy"
)

// cutGolden pins the "interrupt" pipe case — a decision-traced LBP-2 churn
// run whose arrival stream is cut once 1000 arrivals have been routed —
// for every router and seed of TestPipeMatchesDirectCollector: the
// simulator's counters, the completion time and every float of the Summary
// as exact bits, and the decision log's hash. The values were recorded
// while serve still ran its own interruptible copy of the simulator's
// loop; the one loop in sim.Run must cut the same run at the same event.
var cutGolden = map[string]string{
	"uniform/seed1": "t=4050fb2c5588cd74 fail=470 rec=464 sent=78 moved=307 ext=1000 proc=3492598580f9e926 | Arrived=1400 Completed=1400 Elapsed=4050fb2c5588cd74 P50=4021abef480ced51 P90=40370e6ed1d8a620 P99=4040ea1746afb86a MeanSojourn=40233a472575ee56 MeanWait=40217fc7c29c5745 Throughput=40349c70bb22f78a QueueDepth=4068b832c40a8a12 InFlight=3fd94bb2969169ea Availability=3fea47be9893c280 Fairness=3fef68b41868c679 | decisions=1000 hash=d27fc4a8c3c12c6c",
	"uniform/seed2": "t=405c305642c26342 fail=794 rec=784 sent=78 moved=307 ext=1000 proc=19ecd5ca30292b02 | Arrived=1400 Completed=1400 Elapsed=405c305642c26342 P50=4023f4dcfe82d37d P90=4038f07b3e0d39ca P99=404afc97dadec45d MeanSojourn=40261248e926f046 MeanWait=40243d4bbec474aa Throughput=4028d5218eeed605 QueueDepth=40611a1053543d18 InFlight=3fca9cd927c77c68 Availability=3fe9efba7364ec6d Fairness=3fef3f5cbf69ced2 | decisions=1000 hash=0b91109e433ef7f5",
	"uniform/seed3": "t=40529b0fb9628b17 fail=479 rec=474 sent=78 moved=307 ext=1000 proc=7b803afae25db845 | Arrived=1400 Completed=1400 Elapsed=40529b0fb9628b17 P50=4021718b1bf4605a P90=4039903346d5eed8 P99=404765fc67eb6644 MeanSojourn=402496f91f3587c3 MeanWait=4022d072dd375781 Throughput=4032cfb9ec956ba3 QueueDepth=40682b476c5ce6f0 InFlight=3fd3c29fad646cdf Availability=3fea2fce178d973c Fairness=3fef6ce4b46f7aaf | decisions=1000 hash=617ce2cb68c28fc6",
	"pod2/seed1":    "t=4043bc6f8a4ec79f fail=259 rec=244 sent=78 moved=307 ext=1000 proc=29212aaea4663b8a | Arrived=1400 Completed=1400 Elapsed=4043bc6f8a4ec79f P50=401bf6830f9c12f5 P90=402db77e3aed532e P99=4034a13ef4b55271 MeanSojourn=401ca19ce19e7ef0 MeanWait=40197a999801186e Throughput=4041bbe8c9f29d97 QueueDepth=406fa63456782567 InFlight=3fe5c3c3905e917c Availability=3fea1b06c443e01c Fairness=3feecb6b9f6d97f8 | decisions=1000 hash=ae17d3f0733d030b",
	"pod2/seed2":    "t=404657d7bcea3b2d fail=324 rec=313 sent=78 moved=307 ext=1000 proc=46eba06e9c5fa453 | Arrived=1400 Completed=1400 Elapsed=404657d7bcea3b2d P50=4022590d9328db9b P90=4030f7ac45e3b8da P99=403ba38406654910 MeanSojourn=4021ff0e2c1a2a25 MeanWait=4020504719a7b015 Throughput=403f545c4210d96b QueueDepth=407196224eaaaf5a InFlight=3fe0c9a76568016f Availability=3fea3e97cf1ebcd0 Fairness=3feeee412f27f1dc | decisions=1000 hash=d08217391f67753c",
	"pod2/seed3":    "t=404a6f87472bc282 fail=338 rec=331 sent=78 moved=307 ext=1000 proc=6e73b34034e0e96f | Arrived=1400 Completed=1400 Elapsed=404a6f87472bc282 P50=401f57954ca6038b P90=403117ce23a0ad4e P99=403d5c7828a22a80 MeanSojourn=40208ae9959f8da5 MeanWait=401db780d251ebf3 Throughput=403a7ab91086af87 QueueDepth=406b52b5cebe166d InFlight=3fdbd0a17a198a9b Availability=3fe9b854b71452ca Fairness=3feeb8e28e8d10fc | decisions=1000 hash=0691485e3a11f736",
	"jsq/seed1":     "t=40460d9026ed4b4b fail=296 rec=290 sent=78 moved=307 ext=1000 proc=13975e0c5afb7efa | Arrived=1400 Completed=1400 Elapsed=40460d9026ed4b4b P50=401ecce8e6f853ea P90=4030b96540cfe6ee P99=40392a302be95ecc MeanSojourn=401fe00936bddb59 MeanWait=401c92cd42b9fb1f Throughput=403fbde2b86e7e6b QueueDepth=406f8ab39597fe3f InFlight=3fe37a63d29738f4 Availability=3fe99b20bc702af5 Fairness=3fee02be6c1b7039 | decisions=1000 hash=c974d20f7c17c154",
	"jsq/seed2":     "t=40469c8e0817dec6 fail=308 rec=300 sent=78 moved=307 ext=1000 proc=e6a2cd1f518dfc65 | Arrived=1400 Completed=1400 Elapsed=40469c8e0817dec6 P50=401ff8ecc430036c P90=4030bef92fa90fd8 P99=403b3698b68a941b MeanSojourn=40209173ac85b2e6 MeanWait=401dd6c340dd9d69 Throughput=403ef527f0d7abdd QueueDepth=406ffdfed702581f InFlight=3fe096a3a926b1d0 Availability=3fea0daed4f9f64b Fairness=3fee4748bccc941b | decisions=1000 hash=085a641e224c23db",
	"jsq/seed3":     "t=4044176f806d891b fail=236 rec=226 sent=78 moved=307 ext=1000 proc=88a8d95b2c897afb | Arrived=1400 Completed=1400 Elapsed=4044176f806d891b P50=402010f27570898a P90=402f8593a9ea9610 P99=40380752e1c4ff60 MeanSojourn=402015660dd84ef4 MeanWait=401d0ad0b993b526 Throughput=40416b965aeb67d6 QueueDepth=407179bc6a6c5504 InFlight=3fe24c858fafe62f Availability=3feaf6b8305fba7d Fairness=3fed4d454f69f97e | decisions=1000 hash=cad54b26a910d4e7",
}

// cutFingerprint flattens what cutGolden pins of one run.
func cutFingerprint(out *caseRun) string {
	var b strings.Builder
	s := out.res.Sim
	h := fnv.New64a()
	for _, p := range s.Processed {
		fmt.Fprintf(h, "%d,", p)
	}
	fmt.Fprintf(&b, "t=%016x fail=%d rec=%d sent=%d moved=%d ext=%d proc=%016x |",
		math.Float64bits(s.CompletionTime), s.Failures, s.Recoveries, s.TransfersSent, s.TasksTransferred, s.ExternalArrivals, h.Sum64())
	sum := reflect.ValueOf(out.res.Summary)
	for i := 0; i < sum.NumField(); i++ {
		switch f := sum.Field(i); f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(&b, " %s=%016x", sum.Type().Field(i).Name, math.Float64bits(f.Float()))
		default:
			fmt.Fprintf(&b, " %s=%v", sum.Type().Field(i).Name, f.Interface())
		}
	}
	st := out.tracer.Stats()
	fmt.Fprintf(&b, " | decisions=%d hash=%016x", st.Records, st.Hash)
	return b.String()
}

// TestCutRunGolden holds every router and seed of the cut pipe case to
// cutGolden.
func TestCutRunGolden(t *testing.T) {
	routers := []struct {
		name string
		new  func() policy.Router
	}{
		{"uniform", nil},
		{"pod2", func() policy.Router { return policy.PowerOfD{D: 2} }},
		{"jsq", func() policy.Router { return policy.JSQ{} }},
	}
	for _, rt := range routers {
		for _, seed := range []uint64{1, 2, 3} {
			for _, c := range pipeCases(t, seed, rt.new) {
				if c.name != "interrupt" {
					continue
				}
				name := fmt.Sprintf("%s/seed%d", rt.name, seed)
				if got, want := cutFingerprint(runPiped(t, c)), cutGolden[name]; got != want {
					t.Errorf("%s:\n got %q\nwant %q", name, got, want)
				}
			}
		}
	}
}
