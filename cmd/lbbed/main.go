// Command lbbed runs the concurrent goroutine testbed — the paper's
// Section-3 distributed system at laptop scale, optionally over real
// loopback UDP/TCP sockets. It is a closed run of the live engine
// (internal/daemon, which cmd/lbd serves arrivals with): the workload is
// the initial backlog.
//
// Examples:
//
//	lbbed -m0 100 -m1 60 -policy lbp1 -k 0.35 -scale 1000
//	lbbed -m0 100 -m1 60 -policy lbp2 -net -real
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"churnlb"
	"churnlb/internal/policy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbbed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m0     = fs.Int("m0", 100, "initial tasks at node 0")
		m1     = fs.Int("m1", 60, "initial tasks at node 1")
		polStr = fs.String("policy", "lbp2", "policy: lbp1, lbp1multi, lbp2, none, dynamic")
		k      = fs.Float64("k", 1.0, "LB gain")
		sender = fs.Int("sender", 0, "LBP-1 sender")
		scale  = fs.Float64("scale", 1000, "virtual seconds per wall second")
		useNet = fs.Bool("net", false, "use real loopback UDP/TCP sockets")
		real   = fs.Bool("real", false, "execute the matrix arithmetic for every task")
		trace  = fs.Bool("trace", false, "print the queue-evolution trace")
		seed   = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	spec, err := policy.ParseSpec(*polStr, *k, *sender)
	if err != nil {
		fmt.Fprintln(stderr, "lbbed:", err)
		return 2
	}

	start := time.Now()
	res, err := churnlb.RunTestbed(churnlb.PaperSystem(), spec, []int{*m0, *m1}, *seed, churnlb.TestbedOptions{
		TimeScale:   *scale,
		UseSockets:  *useNet,
		RealCompute: *real,
		Trace:       *trace,
	})
	if err != nil {
		fmt.Fprintln(stderr, "lbbed:", err)
		return 1
	}
	transport := "channels"
	if *useNet {
		transport = "loopback UDP/TCP"
	}
	fmt.Fprintf(stdout, "testbed (%s, scale %.0fx): completion %.2f virtual s in %.2f wall s\n",
		transport, *scale, res.CompletionTime, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "processed %v, failures %d, recoveries %d, transfers %d (%d tasks), state packets %d, %d tasks lost\n",
		res.Processed, res.Failures, res.Recoveries, res.TransfersSent, res.TasksTransferred, res.StatePackets, res.Lost)
	if *trace {
		fmt.Fprintln(stdout, "t_s,event,node,queues")
		for _, tp := range res.Trace {
			fmt.Fprintf(stdout, "%.3f,%s,%d,%v\n", tp.Time, tp.Event, tp.Node, tp.Queues)
		}
	}
	return 0
}
