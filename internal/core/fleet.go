package core

import (
	"fmt"

	"haste/internal/model"
	"haste/internal/obs"
)

// This file is the fleet-scale entry point of the shard-and-stitch
// decomposition: scheduling straight from a raw instance, without ever
// compiling the monolithic Problem. TabularGreedy's sharded path takes a
// compiled parent Problem (its API) and derives each component from the
// parent's rows and Γ, but at 10⁶ tasks the parent compile alone costs
// minutes of dominant extraction and a whole-field Γ and kernel in
// memory. ScheduleSharded skips it: it builds only the sparse chargeable
// rows (grid-indexed, O((n+m)·density)), finds the coverage components
// from them, and compiles each component's sub-Problem transiently inside
// the shared component loop (scheduleComponents) — a component's Gamma
// and kernel exist only while its greedy run is in flight, so peak memory
// is bounded by Options.Workers × the largest component instead of the
// whole field. That is what lets a 10⁶-task fleet compile and schedule
// end-to-end in a small memory budget.
//
// Equivalence contract with TabularGreedy's sharded path (pinned by
// TestScheduleShardedMatchesParent): both draw the identical global color
// plan in monolithic RNG order, decompose into identical components
// (coverageComponents from the same chargeable rows), slice identical
// sub-instances and hand each component the identical plan slices — so
// every schedule cell is bit-identical. Only RUtility is accumulated
// differently: the parent path re-evaluates the stitched schedule on the
// monolithic kernel, which ScheduleSharded deliberately never builds, so
// it sums the per-component utilities in canonical ascending component
// order instead. The sum is mathematically equal (components partition
// the tasks and cross-component energy is exactly zero) but may differ
// from the monolithic accumulation order in the last ulp; callers needing
// the bit-exact monolithic figure can Evaluate the returned schedule on a
// compiled Problem.

// DecomposeInstance returns the connected components of the charger–task
// coverage graph of a raw instance, computed from grid-indexed sparse
// rows without extracting dominant policies or compiling a kernel. The
// components are identical to Problem.Components() on the same instance.
func DecomposeInstance(in *model.Instance) ([]Component, error) {
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	comps, _ := coverageComponents(len(in.Chargers), len(in.Tasks), chargeableRows(in, obs.SpanRef{}))
	return comps, nil
}

// ScheduleSharded runs the shard-and-stitch TabularGreedy directly on a
// raw instance: decompose, compile each schedulable component on demand,
// schedule it under the globally drawn color plan, stitch the cells back
// into the global index space, and sum the per-component utilities. See
// the file comment for the exact equivalence contract with the
// parent-Problem sharded path; Options.Shard is ignored (the whole point
// is the sharded route), as are the warm-start options, and Result.Shards
// reports the scheduled component count.
func ScheduleSharded(in *model.Instance, opt Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: %w", err)
	}
	opt = opt.normalize()
	n, K := len(in.Chargers), in.Horizon()
	if K == 0 || n == 0 {
		return Result{Schedule: NewSchedule(n, K)}, nil
	}

	root := opt.Trace.Start("solve")
	rows := chargeableRows(in, root)
	dsp := root.Start("decompose")
	comps, _ := coverageComponents(n, len(in.Tasks), rows)
	dsp.Int("components", int64(len(comps))).End()
	rows = nil // decomposition done; let the arena be reclaimed

	plan := drawColorPlan(opt.Rng, n, K, opt.Colors, opt.Samples)
	runnable := runnableComponents(in, comps)
	results := make([]*Result, len(comps))
	res, _ := scheduleComponents(nil, n, K, comps, runnable, results, opt, &plan, root,
		func(ci int, sp obs.SpanRef) *Problem {
			// The sub-Problem lives only for this call: compiled, run,
			// reduced to its Result, then garbage. At no point does a
			// global Gamma or kernel exist. The transient compile records
			// its own "compile" subtree under the component span.
			sub, err := newProblem(sliceInstance(in, comps[ci]), sp)
			if err != nil {
				// A component of a validated instance satisfies everything
				// Validate checks (dense renumbered IDs, same params,
				// untouched task fields), so this cannot happen.
				panic(fmt.Sprintf("core: component sub-problem failed to compile: %v", err))
			}
			return sub
		})
	// Canonical ascending component order keeps the summed utility
	// deterministic at any worker count.
	for _, ci := range runnable {
		res.RUtility += results[ci].RUtility
	}
	root.Int("shards", int64(res.Shards))
	root.End()
	res.Trace = opt.Trace
	return res, nil
}
