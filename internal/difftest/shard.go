package difftest

import (
	"fmt"

	"haste/internal/core"
)

// This file is the sharded-vs-monolithic differential sweep: the proof
// obligation of the shard-and-stitch decomposition (core/shard.go). For
// every case the monolithic Workers=1 run is the reference, and a
// ShardOn run of every execution variant must reproduce it under the
// stitching contract:
//
//   - single-component (Connected) cases: bit-identical schedules and
//     exactly equal utilities — CompareResults, the same bar the kernel
//     variants are held to;
//   - multi-component cases: exactly equal utilities, cell-for-cell
//     identical assignments, and -1 exactly on the padding cells past a
//     component's own horizon (where every monolithic assignment has
//     marginal gain exactly +0.0) — CompareSharded.

// ShardSweep is the seeded grid of the sharded sweep: clustered
// multi-component shapes crossing cluster count, color count and sample
// count (including an uneven cluster that leaves some chargers with no
// tasks), plus fully connected single-component shapes where the sharded
// run must be bit-identical.
func ShardSweep() []Case {
	return []Case{
		{Name: "clusters-4-c1", Chargers: 8, Tasks: 24, Clusters: 4, Duration: [2]int{4, 10}, Releases: 5, Colors: 1, Seed: 201},
		{Name: "clusters-4-c3", Chargers: 8, Tasks: 24, Clusters: 4, Duration: [2]int{4, 10}, Releases: 5, Colors: 3, Samples: 9, Seed: 202},
		{Name: "clusters-7-uneven", Chargers: 10, Tasks: 32, Clusters: 7, Duration: [2]int{2, 8}, Releases: 4, Colors: 2, Seed: 203},
		{Name: "clusters-2-c4", Chargers: 6, Tasks: 18, Clusters: 2, Duration: [2]int{3, 9}, Releases: 6, Colors: 4, Seed: 204},
		{Name: "clusters-5-long", Chargers: 10, Tasks: 25, Clusters: 5, Duration: [2]int{10, 30}, Releases: 15, Colors: 2, Samples: 6, Seed: 205},
		{Name: "connected-c1", Chargers: 5, Tasks: 15, Connected: true, Duration: [2]int{3, 9}, Releases: 4, Colors: 1, Seed: 206},
		{Name: "connected-c3", Chargers: 5, Tasks: 15, Connected: true, Duration: [2]int{3, 9}, Releases: 4, Colors: 3, Seed: 207},
	}
}

// RunSharded executes the monolithic Workers=1 reference and a ShardOn
// run of every variant on the case, holding each to the stitching
// contract. It also verifies the case has the component structure its
// shape promises (a Connected case must really be one component; a
// Clusters case must really decompose), so a drifting workload generator
// cannot silently turn the sweep vacuous.
func RunSharded(c Case, variants []Variant) error {
	p, err := c.Problem()
	if err != nil {
		return err
	}
	monoOpt := c.Options(1)
	monoOpt.Shard = core.ShardOff
	mono := core.TabularGreedy(p, monoOpt)

	connected := len(p.Components()) == 1
	if c.Connected && !connected {
		return fmt.Errorf("case %s: expected a fully connected instance, got %d components", c.Name, len(p.Components()))
	}
	// A clustered case must genuinely decompose: every cluster is isolated
	// (≥ Clusters components overall) and at least two components must be
	// schedulable, or the sweep would be comparing monolithic to
	// monolithic. (A cluster can legitimately end up unschedulable when
	// none of its tasks' receive sectors contain one of its chargers.)
	if c.Clusters > 1 {
		if len(p.Components()) < c.Clusters {
			return fmt.Errorf("case %s: expected ≥ %d components, got %d", c.Name, c.Clusters, len(p.Components()))
		}
		if p.SchedulableComponents() < 2 {
			return fmt.Errorf("case %s: only %d schedulable components — sweep would be vacuous", c.Name, p.SchedulableComponents())
		}
	}

	for _, v := range variants {
		// Fresh Problem per variant, with the kernel choice flipped
		// before the sharded run: every component sub-Problem inherits
		// the parent's kernel choice when the run derives it.
		pv, err := c.Problem()
		if err != nil {
			return err
		}
		pv.SetFlatKernel(!v.Generic)
		opt := c.OptionsFor(v)
		opt.Shard = core.ShardOn
		got := core.TabularGreedy(pv, opt)
		if got.Shards != p.SchedulableComponents() {
			return fmt.Errorf("case %s, variant %s: Shards = %d, want %d", c.Name, v.Name, got.Shards, p.SchedulableComponents())
		}
		if connected {
			if err := CompareResults(mono, got); err != nil {
				return fmt.Errorf("case %s, variant %s (connected): %w", c.Name, v.Name, err)
			}
		} else if err := CompareSharded(p, mono, got); err != nil {
			return fmt.Errorf("case %s, variant %s: %w", c.Name, v.Name, err)
		}
	}
	return nil
}

// CompareSharded checks the stitching contract of a sharded result
// against the monolithic reference on the same problem: exactly equal
// total utility; every assigned cell identical to the reference; -1
// exactly where the charger's component horizon has passed (or the
// charger has no schedulable component at all).
func CompareSharded(p *core.Problem, mono, got core.Result) error {
	if got.RUtility != mono.RUtility {
		return fmt.Errorf("RUtility %v != monolithic %v", got.RUtility, mono.RUtility)
	}
	n := len(mono.Schedule.Policy)
	if len(got.Schedule.Policy) != n {
		return fmt.Errorf("charger count %d != %d", len(got.Schedule.Policy), n)
	}
	// horizon[i]: the slot count the charger's component spans (0 when its
	// component has no tasks) — below it the sharded run must agree with
	// the reference, at or above it the cell must be the -1 padding. This
	// is the same per-charger horizon sim.Execute clips switch counting at.
	horizon := p.AssignedHorizons()
	for i := 0; i < n; i++ {
		ref, row := mono.Schedule.Policy[i], got.Schedule.Policy[i]
		if len(row) != len(ref) {
			return fmt.Errorf("charger %d: slot count %d != %d", i, len(row), len(ref))
		}
		for k := range row {
			switch {
			case k < horizon[i]:
				if row[k] < 0 {
					return fmt.Errorf("charger %d slot %d: unassigned inside its component horizon %d", i, k, horizon[i])
				}
				if row[k] != ref[k] {
					return fmt.Errorf("policy diverges at charger %d slot %d: %d != %d", i, k, row[k], ref[k])
				}
			default:
				if row[k] != -1 {
					return fmt.Errorf("charger %d slot %d: expected padding -1 past horizon %d, got %d", i, k, horizon[i], row[k])
				}
			}
		}
	}
	return nil
}
