package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"haste/internal/core"
	"haste/internal/netsim"
	"haste/internal/obs"
	"haste/internal/online"
	"haste/internal/report"
	"haste/internal/transport"
	"haste/internal/workload"
)

// The fig16-tcp workload: `haste run --fig fig16 --transport tcp`, the
// paper's communication-cost sweep (one negotiation per topology, n = 10…100
// chargers, 3 topologies per point) over one loopback socket per charger.
// The seed is folded onto the recorded instance indices like fleet-eval's.

// fig16Binary runs the sweep through the shipped CLI on the given
// transport and returns its table without the timing footer.
func fig16Binary(e *env, idx int, transportName string) (string, procRun, error) {
	pr, err := runProc(e.Work, filepath.Join(e.Bin, "haste"), "run", "--fig", "fig16",
		"--seed", strconv.FormatInt(instanceSeed(idx), 10), "--transport", transportName)
	if err != nil {
		return "", pr, err
	}
	return stripFooter(string(pr.Stdout)), pr, nil
}

func runFig16TCP(e *env) (*outcome, error) {
	idx := instanceIndex(e.Seed)
	refs, err := loadReferences(e.Ref, "fig16.json")
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.Info["instance_index"] = idx
	out.Info["fig16_seed"] = instanceSeed(idx)

	// Set-up: the in-memory sweep the socket sweep must reproduce, run
	// setupRepeats times. Each must match the recorded reference.
	var setup []float64
	for r := 0; r < setupRepeats; r++ {
		tbl, pr, err := fig16Binary(e, idx, "mem")
		if err != nil {
			return nil, err
		}
		setup = append(setup, float64(pr.Wall))
		out.Attempted++
		if tbl != refs.Tables[idx] {
			out.fail("mem fig16 table differs from the recorded reference of instance %d:\n%s", idx, tbl)
		}
	}
	want := refs.Tables[idx]
	if e.Trace {
		return tracedReplicas(e, out, want, func(traced bool) (string, map[string]float64, time.Duration, error) {
			return fig16Replica(instanceSeed(idx), traced)
		})
	}

	procLoop(out, e.Budget, func() (procRun, error) {
		tbl, pr, err := fig16Binary(e, idx, "tcp")
		if err != nil {
			return pr, fmt.Errorf("tcp sweep: %w", err)
		}
		if tbl != want {
			return pr, fmt.Errorf("tcp fig16 table differs from the mem sweep:\n%s", tbl)
		}
		return pr, nil
	})
	out.Metrics["setup_s"] = median(setup) / 1e9
	return out, nil
}

// fig16Replica repeats the fig16 experiment of internal/experiments
// in-process over the tcp transport: the same topologies (repSeed), the
// same calls and the same table. With traced set it times generation,
// compilation and each online.Run from here and runs the negotiations
// through an onlineClock wrapped around transport.Factory.
func fig16Replica(seed int64, traced bool) (string, map[string]float64, time.Duration, error) {
	const reps = 3 // experiments.Options default
	ns := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	var (
		tr    *obs.Trace
		clock *onlineClock
		drv   netsim.Factory = transport.Factory
		tm                   = map[string]time.Duration{}
		total online.Stats
	)
	if traced {
		tr = obs.New()
		clock = &onlineClock{}
		drv = clock.factory(transport.Factory)
	}
	timed := func(name string, f func()) {
		t := time.Now()
		f()
		tm[name] += time.Since(t)
	}

	t0 := time.Now()
	tbl := report.NewTable("Fig. 16 — communication cost vs number of chargers (C = 1, one time slot)",
		"n_chargers", "avg_messages", "avg_rounds", "avg_sessions")
	for point, n := range ns {
		var msgs, rounds, sessions float64
		for rep := 0; rep < reps; rep++ {
			cfg := workload.Default()
			cfg.NumChargers = n
			cfg.DurationMin, cfg.DurationMax = 1, 1
			cfg.ReleaseMax = 0
			cfg.Params.Tau = 0
			s := seed*1_000_003 + int64(point)*1_009 + int64(rep)
			var p *core.Problem
			var err error
			var res online.Result
			timed("workload.generate", func() {
				in := cfg.Generate(rand.New(rand.NewSource(s)))
				timed("core.compile", func() { p, err = core.NewProblemTraced(in, tr) })
			})
			if err != nil {
				return "", nil, 0, err
			}
			timed("online.run", func() { res, err = online.Run(p, online.Options{Colors: 1, Seed: s, Driver: drv}) })
			if err != nil {
				return "", nil, 0, err
			}
			msgs += float64(res.Stats.TotalMessages())
			rounds += float64(res.Stats.TotalRounds())
			for _, neg := range res.Stats.Negotiations {
				sessions += float64(neg.Sessions)
			}
			total.Negotiations = append(total.Negotiations, res.Stats.Negotiations...)
		}
		r := float64(reps)
		tbl.AddRow(n, msgs/r, rounds/r, sessions/r)
	}
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		return "", nil, 0, err
	}
	wall := time.Since(t0)
	if !traced {
		return buf.String(), nil, wall, nil
	}
	// Generation nests compilation; report generation's own time.
	gen := tm["workload.generate"] - tm["core.compile"]
	lay := map[string]float64{
		"workload.generate_ms": ms(gen),
		"core.compile_ms":      ms(tm["core.compile"]),
		"online.run_s":         sec(tm["online.run"]),
	}
	covered := gen + tm["core.compile"] + tm["online.run"]
	lay["trace.residual_frac"] = float64(wall-covered) / float64(wall)
	addSpanLayers(lay, tr.Tree())
	addOnlineLayers(lay, clock, tm["online.run"], total, true)
	return buf.String(), lay, wall, nil
}
