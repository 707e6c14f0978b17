package policy

import (
	"fmt"
	"strings"
)

// This file is the one place a policy or router is named: the declarative
// specs the public API re-exports (churnlb.PolicySpec, churnlb.RouterSpec),
// and the CLI/manifest spelling of each. Every front end — lbsim, lbserve,
// lbd, manifest replay, the calibration twin — resolves a spelling
// through ParseSpec/ParseRouterSpec, so one name means one policy
// everywhere and a name added here reaches all of them.

// Kind selects a load-balancing policy.
type Kind int

// Available policies.
const (
	// KindNone performs no balancing.
	KindNone Kind = iota
	// KindLBP1 is the paper's preemptive policy (two nodes).
	KindLBP1
	// KindLBP2 is the paper's on-failure policy.
	KindLBP2
	// KindLBP1Multi is the documented N-node preemptive extension.
	KindLBP1Multi
	// KindDynamicLBP2 re-runs LBP-2's balance at every external arrival
	// (the conclusion's dynamic extension).
	KindDynamicLBP2
)

// Spec configures a policy instance.
type Spec struct {
	Kind Kind
	// K is the load-balancing gain in [0, 1].
	K float64
	// Sender fixes LBP-1's sending node; AutoSender picks the more
	// loaded node.
	Sender int
}

// Build returns the policy the spec describes for an n-node cluster. It
// is the one place a spec is fitted to its cluster: LBP-1 is the paper's
// two-node policy, and its sender is node 0, node 1 or AutoSender.
func (s Spec) Build(n int) (Policy, error) {
	var pol Policy
	switch s.Kind {
	case KindNone:
		return NoBalance{}, nil
	case KindLBP1:
		if n != 2 {
			return nil, fmt.Errorf("policy: lbp1 is two-node only, and the cluster has %d nodes (want lbp1multi, lbp2 or none)", n)
		}
		if s.Sender != AutoSender && s.Sender != 0 && s.Sender != 1 {
			return nil, fmt.Errorf("policy: lbp1 sender %d is not one of the two nodes (want 0, 1 or %d for the more loaded)", s.Sender, AutoSender)
		}
		pol = LBP1{K: s.K, Sender: s.Sender}
	case KindLBP2:
		pol = LBP2{K: s.K}
	case KindLBP1Multi:
		pol = LBP1Multi{K: s.K}
	case KindDynamicLBP2:
		pol = Dynamic{Base: LBP2{K: s.K}}
	default:
		return nil, fmt.Errorf("policy: unknown policy kind %d", s.Kind)
	}
	if err := CheckGain(s.K); err != nil {
		return nil, err
	}
	return pol, nil
}

// RouterKind selects a dispatcher routing policy.
type RouterKind int

// Available routers.
const (
	// RouterUniform sends each arrival to a uniformly random node (the
	// closed-model default).
	RouterUniform RouterKind = iota
	// RouterRoundRobin cycles through nodes in index order.
	RouterRoundRobin
	// RouterJSQ joins the shortest queue over all nodes (churn-blind).
	RouterJSQ
	// RouterPowerOfD joins the shortest of D sampled queues (churn-blind).
	RouterPowerOfD
	// RouterLeastExpectedWork joins the node with the least expected
	// work, discounting down nodes by their expected recovery time (the
	// churn-aware router). D = 0 scans all nodes; D > 0 samples D.
	RouterLeastExpectedWork
)

// RouterSpec configures a dispatcher routing policy.
type RouterSpec struct {
	Kind RouterKind
	// D is the number of choices for RouterPowerOfD (default 2) and
	// RouterLeastExpectedWork (0 = scan all nodes).
	D int
}

// New returns a fresh router instance (routers may be stateful per run),
// or nil for RouterUniform.
func (rs RouterSpec) New() (Router, error) {
	switch rs.Kind {
	case RouterUniform:
		return nil, nil
	case RouterRoundRobin:
		return NewRoundRobin(), nil
	case RouterJSQ:
		return JSQ{}, nil
	case RouterPowerOfD:
		return PowerOfD{D: rs.D}, nil
	case RouterLeastExpectedWork:
		return LeastExpectedWork{D: rs.D}, nil
	default:
		return nil, fmt.Errorf("policy: unknown router kind %d", rs.Kind)
	}
}

// Factory validates the spec for an n-node cluster and returns a
// constructor of fresh routers — what a run that may execute many
// realisations holds instead of one (possibly stateful) instance. Every
// run path builds its routers here, so here lew's sample size is held to
// the cluster: a d outside [0, n] is refused, not spun on per arrival.
func (rs RouterSpec) Factory(n int) (func() Router, error) {
	if rs.Kind == RouterLeastExpectedWork && (rs.D < 0 || rs.D > n) {
		return nil, fmt.Errorf("policy: lew -d %d is outside [0, %d], the cluster's node count (0 scans every node)", rs.D, n)
	}
	if _, err := rs.New(); err != nil {
		return nil, err
	}
	return func() Router {
		rt, _ := rs.New() // validated above
		return rt
	}, nil
}

// Names lists the balancing-policy spellings ParseSpec accepts, in help
// order; RouterNames the router spellings ParseRouterSpec accepts.
func Names() []string { return []string{"lbp1", "lbp1multi", "lbp2", "none", "dynamic"} }

// RouterNames: see Names.
func RouterNames() []string { return []string{"uniform", "rr", "jsq", "pod2", "pod3", "lew"} }

// ParseSpec maps a balancing-policy spelling (plus gain and LBP-1 sender)
// to its spec. "" means none: manifests omit unset fields.
func ParseSpec(name string, k float64, sender int) (Spec, error) {
	switch name {
	case "", "none":
		return Spec{Kind: KindNone}, nil
	case "lbp1":
		return Spec{Kind: KindLBP1, K: k, Sender: sender}, nil
	case "lbp1multi":
		return Spec{Kind: KindLBP1Multi, K: k}, nil
	case "lbp2":
		return Spec{Kind: KindLBP2, K: k}, nil
	case "dynamic":
		return Spec{Kind: KindDynamicLBP2, K: k}, nil
	default:
		return Spec{}, fmt.Errorf("unknown policy %q (want %s)", name, oneOf(Names()))
	}
}

// ParseRouterSpec maps a router spelling (plus lew's sample size d) to its
// spec. "" means uniform.
func ParseRouterSpec(name string, d int) (RouterSpec, error) {
	switch name {
	case "", "uniform":
		return RouterSpec{Kind: RouterUniform}, nil
	case "rr":
		return RouterSpec{Kind: RouterRoundRobin}, nil
	case "jsq":
		return RouterSpec{Kind: RouterJSQ}, nil
	case "pod2":
		return RouterSpec{Kind: RouterPowerOfD, D: 2}, nil
	case "pod3":
		return RouterSpec{Kind: RouterPowerOfD, D: 3}, nil
	case "lew":
		return RouterSpec{Kind: RouterLeastExpectedWork, D: d}, nil
	default:
		return RouterSpec{}, fmt.Errorf("unknown router %q (want %s)", name, oneOf(RouterNames()))
	}
}

// oneOf renders "a, b or c".
func oneOf(names []string) string {
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + " or " + names[last]
}
