package commspec

import "fmt"

// Skeleton is the statically extracted communication contract of a module:
// one entry per kernel (a function that launches an mpi job), listing the
// phases it may enter and the collective and point-to-point operations it
// may perform, with partners/tags/guards in the rank algebra.
// analysis.BuildSkeleton extracts it; cmd/paverify checks recorded runs
// against it.
type Skeleton struct {
	// Kernels are in declaration order: by package path, file and line.
	Kernels []Kernel
}

// Kernel is one mpi entry point's communication shape.
type Kernel struct {
	// Name is the lowercased receiver (or function) name — "ft", "lu" —
	// matching the -kernel flags of the simulation drivers.
	Name string
	// Phases are the SetPhase labels the kernel can enter, in static
	// traversal order. The implicit initial phase "main" is always legal.
	Phases []string
	// Collectives are the collective call sites.
	Collectives []Collective
	// P2P are the point-to-point endpoints; a SendRecv contributes one
	// send and one recv entry.
	P2P []P2P
}

// Collective is one collective call site.
type Collective struct {
	// Op is the mpi method name: "Allreduce", "Barrier", ...
	Op string
	// Phase is the phase the call executes under, or "?" when ambiguous.
	Phase string
	// Guard is the conjunction of enclosing conditions in the rank
	// algebra; empty means unconditional, "?" unresolvable.
	Guard string
	// Pos is the module-relative file:line of the call.
	Pos string
}

// P2P is one point-to-point endpoint.
type P2P struct {
	// Dir is "send" or "recv".
	Dir string
	// Partner is the peer rank expression over {rank, N}, or "?".
	Partner string
	// Tag is the message tag expression, or "?".
	Tag string
	// Phase is the phase the call executes under, or "?".
	Phase string
	// Guard is as in Collective.
	Guard string
	// Pos is the module-relative file:line of the call.
	Pos string
}

// Kernel returns the named kernel, or nil.
func (s *Skeleton) Kernel(name string) *Kernel {
	for i := range s.Kernels {
		if s.Kernels[i].Name == name {
			return &s.Kernels[i]
		}
	}
	return nil
}

// guardHolds reports whether the guard can be satisfied at (rank, n):
// empty and wildcard guards are satisfiable, a resolvable guard must
// evaluate to true.
func guardHolds(guard string, rank, n int) bool {
	if guard == "" || guard == Unknown {
		return true
	}
	v, known, err := EvalBool(guard, rank, n)
	if err != nil || !known {
		return true // unresolvable at replay time: treat as wildcard
	}
	return v
}

// phaseMatches reports whether an observed phase is admitted by a site's
// static phase label.
func phaseMatches(site, observed string) bool {
	return site == observed || site == Unknown
}

// CheckPhase verifies an observed phase transition: the label must be one
// the skeleton predicts for this kernel.
func (k *Kernel) CheckPhase(name string) error {
	for _, p := range k.Phases {
		if p == name || p == Unknown {
			return nil
		}
	}
	return fmt.Errorf("phase %q not predicted by skeleton for kernel %s (static phases: %v)", name, k.Name, k.Phases)
}

// CheckCollective verifies an observed collective: some predicted
// collective site must match the op under a satisfiable guard in the
// observed phase.
func (k *Kernel) CheckCollective(op, phase string, rank, n int) error {
	for _, c := range k.Collectives {
		if c.Op == op && phaseMatches(c.Phase, phase) && guardHolds(c.Guard, rank, n) {
			return nil
		}
	}
	return fmt.Errorf("collective %s by rank %d in phase %q (N=%d) not predicted by skeleton for kernel %s", op, rank, phase, n, k.Name)
}

// CheckP2P verifies an observed message endpoint: some predicted p2p site
// with the right direction must resolve to the observed peer (or be a
// wildcard), carry the observed tag (or a wildcard), match the phase and
// hold its guard.
func (k *Kernel) CheckP2P(dir string, rank, peer, tag int, phase string, n int) error {
	for _, p := range k.P2P {
		if p.Dir != dir || !phaseMatches(p.Phase, phase) || !guardHolds(p.Guard, rank, n) {
			continue
		}
		pv, pKnown, err := EvalInt(p.Partner, rank, n)
		if err != nil {
			continue
		}
		if pKnown && pv != peer {
			continue
		}
		tv, tKnown, err := EvalInt(p.Tag, rank, n)
		if err != nil {
			continue
		}
		if tKnown && tv != tag {
			continue
		}
		return nil
	}
	return fmt.Errorf("%s rank %d ↔ rank %d tag %d in phase %q (N=%d) not predicted by skeleton for kernel %s", dir, rank, peer, tag, phase, n, k.Name)
}
