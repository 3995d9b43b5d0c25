// Differential tests: every execution strategy of TabularGreedy — the
// instrumented scan, the generic kernel and sharded runs at any component
// worker count — must reproduce the reference byte-for-byte on the seeded
// workload sweep. This file (with the internal/difftest harness) is
// the determinism contract of DESIGN.md §3 "Parallel execution &
// determinism"; CI additionally runs it under the race detector.
package core_test

import (
	"math"
	"math/rand"
	"testing"

	"haste/internal/core"
	"haste/internal/difftest"
)

// TestTabularGreedyDifferentialSweep is the acceptance-criteria suite: for
// every seeded case, the instrumented per-state scan and the generic
// kernel produce Schedule.Policy tables and RUtility identical to the
// batched flat-kernel reference.
func TestTabularGreedyDifferentialSweep(t *testing.T) {
	for _, c := range difftest.Sweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := difftest.Run(c, difftest.Variants()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestShardedDifferentialSweep is the shard-and-stitch acceptance suite:
// for every clustered multi-component and fully connected case, a
// ShardOn run of every execution variant (component workers, generic
// kernel, instrumented scan) reproduces the monolithic Workers=1
// reference under the stitching contract — bit-identical on connected
// instances, exact utility equality plus per-component schedule identity
// on multi-component ones. See difftest.RunSharded.
func TestShardedDifferentialSweep(t *testing.T) {
	for _, c := range difftest.ShardSweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := difftest.RunSharded(c, difftest.ShardVariants()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMutationWalkDifferentialSweep is the incremental-scheduling
// acceptance suite: a ≥100-step random add/remove walk through the delta
// operations, where after every step the patched problem must equal a
// from-scratch compile, and periodic warm-started solves under every
// execution variant (component workers, generic kernel) must be bit-identical
// to cold solves of freshly compiled problems. The clustered cases must
// actually adopt untouched components across the walk, or the warm-start
// machinery would be passing vacuously.
func TestMutationWalkDifferentialSweep(t *testing.T) {
	steps, solveEvery := 120, 6
	if testing.Short() {
		steps = 30
	}
	for _, c := range difftest.MutationSweep() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			reused, err := difftest.RunMutationWalk(c, difftest.MutationVariants(), steps, solveEvery)
			if err != nil {
				t.Fatal(err)
			}
			if c.Clusters > 1 && reused == 0 {
				t.Error("no component was ever adopted warm — the sweep is vacuous")
			}
		})
	}
}

// TestTabularGreedyWorkerCountIrrelevant drives one clustered C > 1 case
// through a denser component-worker grid than the standard sharded
// variant set, including counts far above both GOMAXPROCS and the
// component count, with PreferStay on and off.
func TestTabularGreedyWorkerCountIrrelevant(t *testing.T) {
	c := difftest.Case{Name: "worker-grid", Chargers: 10, Tasks: 30, Clusters: 5,
		Duration: [2]int{4, 10}, Releases: 5, Colors: 3, Samples: 9, Seed: 42}
	p, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if p.SchedulableComponents() < 2 {
		t.Fatalf("case decomposes into %d schedulable components — grid would be vacuous", p.SchedulableComponents())
	}
	for _, preferStay := range []bool{true, false} {
		opts := func(workers int) core.Options {
			o := c.Options(workers)
			o.PreferStay = preferStay
			o.Shard = core.ShardOn
			return o
		}
		ref := core.TabularGreedy(p, opts(1))
		for _, w := range []int{2, 3, 4, 5, 7, 16, 64} {
			got := core.TabularGreedy(p, opts(w))
			if err := difftest.CompareResults(ref, got); err != nil {
				t.Errorf("preferStay=%v workers=%d: %v", preferStay, w, err)
			}
		}
	}
}

// TestTabularGreedyOptionComposition checks that the monolithic run's
// remaining option axes compose: the generic kernel and KernelStats,
// alone and together, and a Workers override (a no-op without sharding),
// each with PreferStay on and off.
func TestTabularGreedyOptionComposition(t *testing.T) {
	c := difftest.Case{Name: "compose", Chargers: 5, Tasks: 20,
		Duration: [2]int{3, 9}, Releases: 4, Colors: 2, Seed: 77}
	p, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	if !p.FlatKernel() {
		t.Fatal("default utility did not select the flat kernel — the generic axis would be vacuous")
	}
	for _, preferStay := range []bool{true, false} {
		opts := func(workers int, stats bool) core.Options {
			o := c.Options(workers)
			o.PreferStay = preferStay
			o.Shard = core.ShardOff
			o.KernelStats = stats
			return o
		}
		ref := core.TabularGreedy(p, opts(1, false))
		for _, v := range []struct {
			name    string
			workers int
			stats   bool
			generic bool
		}{
			{"stats", 1, true, false},
			{"workers3", 3, false, false},
			{"generic", 1, false, true},
			{"generic+stats+workers4", 4, true, true},
		} {
			p.SetFlatKernel(!v.generic)
			got := core.TabularGreedy(p, opts(v.workers, v.stats))
			p.SetFlatKernel(true)
			if err := difftest.CompareResults(ref, got); err != nil {
				t.Errorf("preferStay=%v %s: %v", preferStay, v.name, err)
			}
		}
	}
}

// TestCompareResultsDetectsDivergence guards the harness itself: a flipped
// policy cell and a perturbed utility must both be reported.
func TestCompareResultsDetectsDivergence(t *testing.T) {
	c := difftest.Sweep()[0]
	p, err := c.Problem()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.TabularGreedy(p, c.Options(1))
	if err := difftest.CompareResults(ref, ref); err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}

	mut := core.Result{Schedule: ref.Schedule.Clone(), RUtility: ref.RUtility}
	rng := rand.New(rand.NewSource(1))
	i := rng.Intn(len(mut.Schedule.Policy))
	k := rng.Intn(len(mut.Schedule.Policy[i]))
	mut.Schedule.Policy[i][k]++
	if err := difftest.CompareResults(ref, mut); err == nil {
		t.Error("flipped policy cell not detected")
	}

	mut = core.Result{Schedule: ref.Schedule.Clone(), RUtility: math.Nextafter(ref.RUtility, 2)}
	if err := difftest.CompareResults(ref, mut); err == nil {
		t.Error("one-ulp utility drift not detected")
	}
}
