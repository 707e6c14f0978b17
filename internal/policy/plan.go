package policy

import (
	"math"
	"sort"

	"churnlb/internal/model"
)

// FailurePlanner is implemented by policies whose on-failure transfer
// sizes depend only on the parameter set — eq. (8)'s LF_ij is a function
// of rates alone, not of queue state. A realisation that finds this
// capability on its installed policy builds the plan once per run and
// serves every failure episode from it, walking only the receivers with
// nonzero floored sizes instead of scanning the cluster: O(active
// receivers) per failure, O(1) when the plan row is empty — the common
// regime at large N, where every per-receiver share floors to zero. It
// is the churn-path counterpart of IndexedRouter on the routing path.
//
// Once a plan is installed OnFailure is no longer consulted per episode.
// A wrapper that embeds a planning policy and overrides OnFailure
// therefore must also shadow FailurePlan (returning nil or a matching
// plan): Go's method promotion would otherwise expose the embedded plan
// and silently bypass the override.
type FailurePlanner interface {
	Policy
	// FailurePlan returns the precomputed per-failing-node receiver
	// lists for parameter set p, or nil when this configuration cannot
	// be planned and OnFailure must be consulted per episode.
	FailurePlan(p model.Params) *FailurePlan
}

// FailurePlan holds eq. (8)'s compensating transfers precomputed for
// every potential failing node j: rows[j] lists the receivers i with
// ⌊avail_i · (λd_i/Σλd) · (λd_j/λr_j)⌋ ≥ 1 in ascending i order, each
// entry carrying the uncapped transfer size. Capping against the failing
// node's remaining queue happens at episode time (Transfers), in the
// same receiver order as the reference scan, so the planned episode is
// bit-identical to LBP2.OnFailure for every queue state.
//
// A built plan is immutable: every method is read-only, so one plan may
// be shared freely — across the realisations of a Monte-Carlo sweep and
// across the goroutines running them concurrently — as long as it was
// built for the same Params (plans are a pure function of the parameter
// set; see Nodes for the cheap structural check).
type FailurePlan struct {
	rows [][]model.Transfer
}

// Nodes returns the cluster size the plan was built for; a plan is only
// valid for parameter sets with exactly this many nodes.
func (fp *FailurePlan) Nodes() int { return len(fp.rows) }

// PlanFor builds pol's failure plan for parameter set p, or returns nil
// when pol does not plan (not a FailurePlanner, or the configuration
// cannot be planned). Callers running many realisations of the same
// Params build the plan once here and hand the shared, read-only result
// to every run instead of paying the O(n log n) construction per run.
func PlanFor(pol Policy, p model.Params) *FailurePlan {
	fp, ok := pol.(FailurePlanner)
	if !ok {
		return nil
	}
	return fp.FailurePlan(p)
}

// Transfers appends node failed's failure episode to dst and returns it:
// each planned transfer capped against the queue the failing node holds,
// stopping once the queue is exhausted. dst is typically a reusable
// scratch buffer (the simulator passes one), so steady-state episodes
// allocate nothing.
//
//churnlb:hotpath
func (fp *FailurePlan) Transfers(dst []model.Transfer, failed, queued int) []model.Transfer {
	remaining := queued
	if remaining <= 0 {
		return dst
	}
	for _, tr := range fp.rows[failed] {
		if remaining <= 0 {
			break
		}
		if tr.Tasks > remaining {
			tr.Tasks = remaining
		}
		remaining -= tr.Tasks
		dst = append(dst, tr)
	}
	return dst
}

// Receivers returns the number of planned receivers for a failure of
// node failed — the episode's cost bound before queue capping.
//
//churnlb:hotpath
func (fp *FailurePlan) Receivers(failed int) int { return len(fp.rows[failed]) }

// FailurePlan implements FailurePlanner: it builds the receiver lists in
// O(n log n + Σ_j active_j) rather than the naive O(n²) pairwise sweep.
// Nodes are sorted once by the receiver factor w_i = avail_i·λd_i
// (availability dropped under the AvailabilityBlind ablation); a receiver
// can have a nonzero floored size for failing node j only when
// w_i·backlog_j ≳ Σλd, so each row consumes a prefix of the sorted order.
// The prefix test keeps 1e-9 relative slack — a superset of the exact
// predicate under float rounding — and every surviving candidate's size
// is then evaluated with exactly the reference scan's arithmetic
// (cached Σλd and availabilities match Params' methods bit for bit), so
// planned sizes equal scanned sizes exactly.
func (l LBP2) FailurePlan(p model.Params) *FailurePlan {
	n := p.N()
	agg := p.Aggregates()
	totalProc := agg.TotalProcRate
	w := make([]float64, n)
	order := make([]int, n)
	for i := 0; i < n; i++ {
		avail := agg.Availability[i]
		if l.AvailabilityBlind {
			avail = 1
		}
		w[i] = avail * p.ProcRate[i]
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	rows := make([][]model.Transfer, n)
	var cand []int
	for j := 0; j < n; j++ {
		if p.RecRate[j] == 0 {
			continue // the reference scan sends nothing either
		}
		backlog := p.ProcRate[j] / p.RecRate[j]
		cand = cand[:0]
		for _, i := range order {
			if w[i]*backlog < totalProc*(1-1e-9) {
				break // sorted descending: no later candidate can qualify
			}
			if i != j {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			continue
		}
		sort.Ints(cand) // episode order must match the ascending-i scan
		row := make([]model.Transfer, 0, len(cand))
		for _, i := range cand {
			avail := agg.Availability[i]
			if l.AvailabilityBlind {
				avail = 1
			}
			tasks := int(math.Floor(avail * (p.ProcRate[i] / totalProc) * backlog))
			if tasks <= 0 {
				continue // prefix slack admitted a borderline candidate
			}
			row = append(row, model.Transfer{From: j, To: i, Tasks: tasks})
		}
		if len(row) > 0 {
			rows[j] = row
		}
	}
	return &FailurePlan{rows: rows}
}
