// Package markov implements the regenerative-process analysis of Section 2
// of Dhakal et al., "Load Balancing in the Presence of Random Node Failure
// and Recovery" (IPDPS 2006).
//
// The system is the two-node model.Params the simulator and the policies
// run, and the analysis prices the policies' own rules: LBP-1 moves
// policy.RoundGain's L = round(K·m) tasks, and LBP-2's initial move is sized
// by policy.LBP2's eq.-(6) excess. With those rates the system is a
// continuous-time Markov process over
//
//	(M0, M1)  — tasks queued at node 0 and node 1,
//	s         — the work state: which nodes are up,
//	pending   — an optional in-flight transfer of L tasks.
//
// Every node i processes tasks at rate ProcRate[i] while up, fails at rate
// FailRate[i] while up, and recovers at rate RecRate[i] while down. A
// transfer of L tasks arrives after an exponential delay with rate
// 1/(DelayPerTask·L), matching the empirically linear mean delay of the
// paper's Fig. 2.
//
// MeanSolver solves the difference equations (eq. 4): at each lattice point
// the four work-state means couple only through failure/recovery
// transitions, giving a 4×4 linear system whose right-hand side references
// already-solved lattice points. CDFSolver integrates the distribution-
// function ODEs (eq. 5) for the full law of the completion time.
package markov

import (
	"fmt"
	"math"

	"churnlb/internal/model"
)

// WorkState encodes which nodes are up: bit i set means node i is working.
type WorkState uint8

// Work states of the two-node system.
const (
	BothDown WorkState = 0 // (0,0)
	Node0Up  WorkState = 1 // (1,0): node 0 up, node 1 down
	Node1Up  WorkState = 2 // (0,1)
	BothUp   WorkState = 3 // (1,1)
)

// Up reports whether node i is up in state s.
func (s WorkState) Up(i int) bool { return s&(1<<uint(i)) != 0 }

// WithDown returns s with node i marked down.
func (s WorkState) WithDown(i int) WorkState { return s &^ (1 << uint(i)) }

// WithUp returns s with node i marked up.
func (s WorkState) WithUp(i int) WorkState { return s | (1 << uint(i)) }

func (s WorkState) String() string {
	k0, k1 := 0, 0
	if s.Up(0) {
		k0 = 1
	}
	if s.Up(1) {
		k1 = 1
	}
	return fmt.Sprintf("(%d,%d)", k0, k1)
}

// checkTwoNode is the one check every two-node solver makes of its
// model.Params: well-posed (model.Params.Validate) and exactly two nodes.
func checkTwoNode(p model.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.N() != 2 {
		return fmt.Errorf("markov: analytical solvers need exactly 2 nodes, got %d", p.N())
	}
	return nil
}

// The analytical queries refuse, before building anything, a request
// whose arrays would not fit or whose work would not finish. No lattice
// holds more than maxLatticeStates queue states (four float64 work-state
// values each: 128 MiB at the cap) and no time or gain grid more points.
// A mean query solves at most maxMeanWork lattice states, summed over
// every lattice it builds, and a CDF takes at most maxCDFWork integrator
// steps over one state (its lattice's states times its steps). Nothing
// lifts them. They sit just above the largest queries of the paper's
// experiments and lbtheory's defaults — Table 1's optimisation at
// (200,200) solves 8.2·10⁶ states, the default CDF takes 2.5·10⁷ steps —
// because Go's fuzzer fails an input that runs 10 s and its
// instrumentation slows the solvers about threefold: at the caps a query
// takes about 2 s (mean) and 3 s (CDF) on a 2.1 GHz Xeon.
const (
	maxLatticeStates = 1 << 22
	maxMeanWork      = 9_000_000
	maxCDFWork       = 30_000_000
)

// lattice returns the queue states of the lattice [0..n0]×[0..n1],
// counted in floating point so that no load overflows it.
func lattice(n0, n1 float64) float64 { return (n0 + 1) * (n1 + 1) }

// checkBudget refuses a query whose largest array, a lattice of states
// queue states or a grid of that many points, exceeds its cap, or whose
// work exceeds maxWork, naming the cap.
func checkBudget(states, work, maxWork float64) error {
	if states > maxLatticeStates {
		return fmt.Errorf("markov: a lattice or grid of %.4g points is above the cap of %d points", states, maxLatticeStates)
	}
	if work > maxWork {
		return fmt.Errorf("markov: %.4g lattice-state evaluations are above the cap of %.0f per query", work, maxWork)
	}
	return nil
}

// transferRate returns the arrival rate λ_transfer(L) = 1/(δ·L) of an
// in-flight bundle of L tasks. It returns +Inf when the model has no delay
// (δ = 0); callers treat that case as an instantaneous transfer.
func transferRate(p model.Params, l int) float64 {
	if l <= 0 {
		panic("markov: transferRate of empty transfer")
	}
	if p.DelayPerTask == 0 {
		return math.Inf(1)
	}
	return 1 / (p.DelayPerTask * float64(l))
}

// Transfer describes a load in flight between the nodes.
type Transfer struct {
	To    int // receiving node, 0 or 1
	Tasks int // number of tasks in the bundle (> 0)
}
