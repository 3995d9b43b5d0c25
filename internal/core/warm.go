package core

import (
	"bytes"
	"slices"
)

// WarmStart carries what a sharded TabularGreedy run (Options.CollectWarm)
// learned, so a later run on a mutated clone of the problem can skip the
// components the mutations did not touch. Reuse is sound at component
// granularity, and only when re-running could not produce anything
// different:
//
//   - the options that shape the search must match (colors, samples,
//     tie-breaking, stats collection — the fingerprint);
//   - the component must have exactly the same charger and task membership
//     as an incumbent component, and none of its chargers may have been
//     marked dirty by a delta operation (then its sub-instance is
//     bit-identical to the incumbent's — a mutation changing any of its
//     tasks would have dirtied one of its chargers);
//   - the new run's color plan, restricted to the component's chargers
//     over its own horizon, must equal the incumbent plan's restriction
//     (both plans are drawn from Options.Rng in the monolithic order, so
//     equal seeds and equal shapes make this trivially true — the check
//     keeps reuse sound for any seed).
//
// Under those conditions monolithicGreedy is a deterministic function of
// (sub-Problem, options, plan slice), so the stored component result IS
// the result a re-run would compute, bit for bit — which is exactly what
// internal/difftest's mutation-walk sweep enforces against from-scratch
// solves. Everything else (dirty or reshaped components) re-runs normally.
//
// A WarmStart is immutable once returned except for MarkDirty, which the
// owner calls between solves as it mutates the problem. It must not be
// shared across concurrently running solves.
type WarmStart struct {
	// Fingerprint of the producing run.
	colors, samples int
	preferStay      bool
	kernelStats     bool
	n, k            int // charger count and horizon of the producing run

	plan    colorPlan   // the producing run's full color plan
	comps   []Component // the producing run's decomposition
	results []*Result   // per-component local results (nil when not run)
	subKs   []int       // per-component sub-horizons
	dirty   map[int]struct{}
}

// MarkDirty records that the given chargers were touched by a delta
// operation since this WarmStart was collected; their components will not
// be reused. AddTask and RemoveTask return exactly this charger set.
func (w *WarmStart) MarkDirty(chargers []int) {
	if w.dirty == nil {
		w.dirty = make(map[int]struct{}, len(chargers))
	}
	for _, i := range chargers {
		w.dirty[i] = struct{}{}
	}
}

// matches reports whether a run with the given normalized options on an
// n-charger problem searches the same space the incumbent run did.
func (w *WarmStart) matches(opt Options, n int) bool {
	return w != nil && w.colors == opt.Colors && w.samples == opt.Samples &&
		w.preferStay == opt.PreferStay && w.kernelStats == opt.KernelStats &&
		w.n == n
}

// reusable returns the incumbent's local result for a component of the new
// decomposition when every reuse condition holds, nil otherwise. K and N
// are the new run's horizon and sample count; plan its color plan.
func (w *WarmStart) reusable(comp Component, subK int, plan *colorPlan, K, N int) *Result {
	if len(comp.Chargers) == 0 {
		return nil
	}
	for _, gi := range comp.Chargers {
		if _, bad := w.dirty[gi]; bad {
			return nil
		}
	}
	// Components are disjoint charger sets ordered by smallest member, so
	// the first charger identifies the only possible incumbent match.
	for oldCi, old := range w.comps {
		if len(old.Chargers) == 0 || old.Chargers[0] != comp.Chargers[0] {
			continue
		}
		if !slices.Equal(old.Chargers, comp.Chargers) || !slices.Equal(old.Tasks, comp.Tasks) {
			return nil
		}
		r := w.results[oldCi]
		if r == nil || w.subKs[oldCi] != subK {
			return nil
		}
		if !w.planMatches(plan, K, N, comp.Chargers, subK) {
			return nil
		}
		return r
	}
	return nil
}

// planMatches compares the new plan's restriction to the component — its
// chargers over its own subK-slot horizon, the only draws runComponent
// hands the sub-run — against the incumbent plan's restriction.
func (w *WarmStart) planMatches(plan *colorPlan, K, N int, chargers []int, subK int) bool {
	for _, gi := range chargers {
		for k := 0; k < subK; k++ {
			a, b := gi*K+k, gi*w.k+k
			if plan.final[a] != w.plan.final[b] {
				return false
			}
			if !bytes.Equal(plan.colorOf[a*N:(a+1)*N], w.plan.colorOf[b*N:(b+1)*N]) {
				return false
			}
		}
	}
	return true
}
