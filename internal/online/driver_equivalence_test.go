package online

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"haste/internal/core"
	"haste/internal/netsim"
	"haste/internal/workload"
)

// concurrentFactory builds an in-memory driver whose stepping fan runs
// every agent on its own goroutine with a barrier per round — the
// concurrency shape of the socket driver (package transport), without
// sockets. netsim.RunRounds promises outcomes independent of the fan a
// driver supplies, so runs through it must match the sequential engine
// bit for bit; under the race detector it also catches an unsynchronized
// write in the agents.
func concurrentFactory(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
	return concurrentDriver{neighbors: neighbors, opt: opt}, nil
}

type concurrentDriver struct {
	neighbors [][]int
	opt       netsim.Options
}

func (concurrentDriver) Close() error { return nil }

func (d concurrentDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
	return netsim.RunRounds(d.neighbors, d.opt, func(_ int, down []bool, inboxes [][]netsim.Message, outs []netsim.Payload) error {
		var wg sync.WaitGroup
		for i := range nodes {
			if down != nil && down[i] {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outs[i], _ = nodes[i].Step(inboxes[i])
			}(i)
		}
		wg.Wait()
		return nil
	})
}

// TestDriverEquivalenceSeededTopologies is the driver-equivalence check at
// the full protocol level: on three seeded topologies the concurrent
// stepping fan and the sequential engine must produce identical schedules
// (orientation timelines), message counts and round counts. CI runs this
// suite under the race detector. The socket driver is held to the same
// contract by difftest.DriverSweep.
func TestDriverEquivalenceSeededTopologies(t *testing.T) {
	for _, seed := range []int64{301, 302, 303} {
		cfg := workload.SmallScale()
		cfg.NumChargers = 7
		cfg.NumTasks = 14
		cfg.FieldSide = 14
		cfg.ReleaseMax = 3
		cfg.DurationMin, cfg.DurationMax = 2, 5
		in := cfg.Generate(rand.New(rand.NewSource(seed)))
		p, err := core.NewProblem(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seq := mustRun(t, p, Options{Seed: seed})
		par := mustRun(t, p, Options{Seed: seed, Driver: concurrentFactory})

		for i := range seq.Orientations {
			for k := range seq.Orientations[i] {
				sv, pv := seq.Orientations[i][k], par.Orientations[i][k]
				if math.IsNaN(sv) != math.IsNaN(pv) || (!math.IsNaN(sv) && sv != pv) {
					t.Fatalf("seed %d: schedule diverges at charger %d slot %d: %v vs %v",
						seed, i, k, sv, pv)
				}
			}
		}
		if seq.Outcome.Utility != par.Outcome.Utility {
			t.Errorf("seed %d: utility diverges: %v vs %v", seed, seq.Outcome.Utility, par.Outcome.Utility)
		}
		if s, p := seq.Stats.TotalMessages(), par.Stats.TotalMessages(); s != p {
			t.Errorf("seed %d: message counts diverge: %d vs %d", seed, s, p)
		}
		if s, p := seq.Stats.TotalRounds(), par.Stats.TotalRounds(); s != p {
			t.Errorf("seed %d: round counts diverge: %d vs %d", seed, s, p)
		}
		if seq.Stats.Net != par.Stats.Net {
			t.Errorf("seed %d: network totals diverge: %+v vs %+v", seed, seq.Stats.Net, par.Stats.Net)
		}
	}
}
