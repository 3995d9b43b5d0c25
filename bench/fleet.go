package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"haste/internal/baseline"
	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/model"
	"haste/internal/netsim"
	"haste/internal/obs"
	"haste/internal/online"
	"haste/internal/report"
	"haste/internal/sim"
)

// The fleet-eval workload: `haste eval` on a seeded workload.FleetScale
// instance of fleetTasks tasks (1,250 chargers in 250 clusters). Its
// inputs and its reference tables are indexed by the seed folded onto
// refInstances instance indices, so every seed has a table recorded from
// the commit that added the benchmark to compare against byte for byte.
const (
	fleetTasks   = 10_000
	refInstances = 16
	fleetFile    = "fleet.json" // relative, so the table title is path-stable
	setupRepeats = 5
)

// instanceIndex folds a seed onto one of the recorded instance indices.
func instanceIndex(seed int64) int {
	return int(((seed % refInstances) + refInstances) % refInstances)
}

// instanceSeed is the generator seed of an instance index.
func instanceSeed(idx int) int64 { return int64(idx) + 1 }

// references are the recorded outputs of every instance index.
type references struct {
	Tables []string `json:"tables"`
}

func loadReferences(dir, name string) (references, error) {
	var r references
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", name, err)
	}
	if len(r.Tables) != refInstances {
		return r, fmt.Errorf("%s holds %d tables, want %d", name, len(r.Tables), refInstances)
	}
	return r, nil
}

// genFleet writes the fleet instance of idx into dir with `haste gen`,
// setupRepeats times, and returns the median wall time: the workload's
// set-up is creating its input file through the shipped CLI.
func genFleet(e *env, idx int) (time.Duration, error) {
	var walls []float64
	for r := 0; r < setupRepeats; r++ {
		pr, err := runProc(e.Work, filepath.Join(e.Bin, "haste"), "gen",
			"--fleet", strconv.Itoa(fleetTasks), "--seed", strconv.FormatInt(instanceSeed(idx), 10),
			"--out", fleetFile)
		if err != nil {
			return 0, err
		}
		walls = append(walls, float64(pr.Wall))
	}
	return time.Duration(median(walls)), nil
}

func runFleetEval(e *env) (*outcome, error) {
	idx := instanceIndex(e.Seed)
	refs, err := loadReferences(e.Ref, "fleet-eval.json")
	if err != nil {
		return nil, err
	}
	want := refs.Tables[idx]
	setup, err := genFleet(e, idx)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.Info["instance_index"] = idx
	out.Info["instance"] = fmt.Sprintf("workload.FleetScale(%d) seed %d", fleetTasks, instanceSeed(idx))
	if e.Trace {
		path := filepath.Join(e.Work, fleetFile)
		return tracedReplicas(e, out, want, func(traced bool) (string, map[string]float64, time.Duration, error) {
			return evalReplica(path, traced)
		})
	}

	procLoop(out, e.Budget, func() (procRun, error) {
		pr, err := runProc(e.Work, filepath.Join(e.Bin, "haste"), "eval", "--instance", fleetFile)
		if err != nil {
			return pr, fmt.Errorf("eval: %w", err)
		}
		if got := string(pr.Stdout); got != want {
			return pr, fmt.Errorf("eval table differs from the recorded reference of instance %d:\n%s", idx, got)
		}
		return pr, nil
	})
	out.Metrics["setup_s"] = sec(setup)
	return out, nil
}

func okFrac(o *outcome) float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Attempted-o.Failed) / float64(o.Attempted)
}

// tracedReplicas alternates untraced and traced in-process replicas of a
// workload's operation for the budget. The untraced replica is the
// program's own call sequence; the traced one adds the benchmark's timers
// and the obs span trace. Every replica's output must equal want.
// Per-layer metrics are the medians over traced replicas; the overhead is
// the traced median wall over the untraced one. The loop ends when the
// budget is spent once one replica of each kind was attempted, whether or
// not any succeeded.
func tracedReplicas(e *env, out *outcome, want string, replica func(traced bool) (string, map[string]float64, time.Duration, error)) (*outcome, error) {
	layers := samples{}
	var plain, traced []float64
	var counts []map[string]float64
	start := time.Now()
	for i := 0; ; i++ {
		tracedRun := i%2 == 1
		est := medDur(plain)
		if tracedRun && len(traced) > 0 {
			est = medDur(traced)
		}
		if i >= 2 && time.Since(start)+est > e.Budget {
			break
		}
		out.Attempted++
		got, lay, wall, err := replica(tracedRun)
		if err != nil {
			out.fail("in-process replica: %v", err)
			continue
		}
		if got != want {
			out.fail("in-process replica output differs from the reference:\n%s", got)
		}
		if !tracedRun {
			plain = append(plain, float64(wall))
			continue
		}
		traced = append(traced, float64(wall))
		c := map[string]float64{}
		for name, v := range lay {
			if isCount(name) {
				c[name] = v
			}
			layers.add(name, v)
		}
		counts = append(counts, c)
	}
	layers.medians(out.Metrics)
	out.Metrics["trace.overhead_frac"] = orZero((median(traced) - median(plain)) / median(plain))
	out.Metrics["trace.counts_moved"] = float64(countsMoved(out, counts))
	fillZeros(out.Metrics)
	out.Info["traced_ops"] = len(traced)
	out.Info["untraced_ops"] = len(plain)
	return out, nil
}

// isCount reports whether a per-layer metric is a deterministic count.
func isCount(name string) bool {
	for _, s := range perLayer {
		if s.Name == name {
			return s.Unit == "count"
		}
	}
	return false
}

// countsMoved flags every deterministic count that differs between the
// repetitions of one run and returns how many moved.
func countsMoved(out *outcome, reps []map[string]float64) int {
	moved := 0
	if len(reps) == 0 {
		return 0
	}
	for name, v := range reps[0] {
		for _, r := range reps[1:] {
			if r[name] != v {
				out.flag("count %s moved between repetitions: %v vs %v", name, v, r[name])
				moved++
				break
			}
		}
	}
	return moved
}

// evalReplica repeats evalCmd of cmd/haste in-process: the same calls, in
// the same order, rendering the same table. With traced set it times
// every call from here, records the compile and solve spans through obs,
// and runs the online negotiation through an onlineClock; it returns the
// per-layer split of this one eval (nil when untraced) and its wall time.
func evalReplica(path string, traced bool) (string, map[string]float64, time.Duration, error) {
	var (
		tr    *obs.Trace
		clock *onlineClock
		drv   netsim.Factory
		tm    = map[string]time.Duration{}
	)
	if traced {
		tr = obs.New()
		clock = &onlineClock{}
		drv = clock.factory(netsim.MemFactory)
	}
	timed := func(name string, f func()) {
		t := time.Now()
		f()
		tm[name] += time.Since(t)
	}

	t0 := time.Now()
	var in *model.Instance
	var err error
	timed("instio.decode", func() { in, err = instio.LoadFile(path) })
	if err != nil {
		return "", nil, 0, err
	}
	var p *core.Problem
	timed("core.compile", func() { p, err = core.NewProblemTraced(in, tr) })
	if err != nil {
		return "", nil, 0, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("evaluation of %s (%d chargers, %d tasks, %d slots)",
			fleetFile, len(in.Chargers), len(in.Tasks), p.K),
		"algorithm", "utility", "relaxed", "switches", "messages")
	addOffline := func(name string, s core.Schedule, relaxed float64) {
		var o sim.Outcome
		timed("sim.execute", func() { o = sim.Execute(p, s) })
		tbl.AddRow(name, o.Utility, relaxed, o.Switches, "-")
	}
	const seed = 1 // haste eval's default --seed
	opt1 := core.DefaultOptions(1)
	opt1.Shard = core.ShardAuto
	opt1.Trace = tr
	var r1, rc core.Result
	timed("core.solve_c1", func() { r1 = core.TabularGreedy(p, opt1) })
	addOffline("HASTE offline C=1", r1.Schedule, r1.RUtility)
	timed("core.solve_c4", func() {
		rc = core.TabularGreedy(p, core.Options{
			Colors: 4, PreferStay: true, Rng: rand.New(rand.NewSource(seed)),
			Shard: core.ShardAuto, Trace: tr,
		})
	})
	addOffline("HASTE offline C=4", rc.Schedule, rc.RUtility)
	var gu, gu2, gc, gc2 core.Schedule
	var rel float64
	timed("baseline.greedy_utility", func() { gu = baseline.GreedyUtility(p); gu2 = baseline.GreedyUtility(p) })
	timed("core.evaluate", func() { rel = core.Evaluate(p, gu2) })
	addOffline("GreedyUtility", gu, rel)
	timed("baseline.greedy_cover", func() { gc = baseline.GreedyCover(p); gc2 = baseline.GreedyCover(p) })
	timed("core.evaluate", func() { rel = core.Evaluate(p, gc2) })
	addOffline("GreedyCover", gc, rel)
	var on online.Result
	timed("online.run", func() { on, err = online.Run(p, online.Options{Colors: 1, Seed: seed, Driver: drv}) })
	if err != nil {
		return "", nil, 0, err
	}
	tbl.AddRow("HASTE online C=1", on.Outcome.Utility, "-", on.Outcome.Switches, on.Stats.TotalMessages())
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		return "", nil, 0, err
	}
	wall := time.Since(t0)
	if !traced {
		return buf.String(), nil, wall, nil
	}

	lay := map[string]float64{}
	covered := time.Duration(0)
	for name, d := range tm {
		covered += d
		if name == "online.run" {
			lay["online.run_s"] = sec(d)
			continue
		}
		lay[name+"_ms"] = ms(d)
	}
	lay["trace.residual_frac"] = float64(wall-covered) / float64(wall)
	addSpanLayers(lay, tr.Tree())
	addOnlineLayers(lay, clock, tm["online.run"], on.Stats, false)
	return buf.String(), lay, wall, nil
}

// addSpanLayers folds the program's own obs spans into the layer map: the
// compile sub-phases and their policy and cover-entry counts (summed over
// every compile), and the decompose spans, with the component and shard
// counts of the first solve (every solve of one problem shares them).
func addSpanLayers(lay map[string]float64, forest []*obs.Node) {
	for _, st := range obs.Aggregate(forest) {
		switch st.Path {
		case "compile/grid_build":
			lay["core.compile.grid_ms"] += st.TotalMS
		case "compile/slot_energy_rows":
			lay["core.compile.rows_ms"] += st.TotalMS
		case "compile/dominant_extract":
			lay["core.compile.dominant_ms"] += st.TotalMS
		case "compile/kernel_compile":
			lay["core.compile.kernel_ms"] += st.TotalMS
		case "solve/decompose":
			lay["core.decompose_ms"] += st.TotalMS
		}
	}
	seenSolve := false
	for _, n := range forest {
		switch {
		case n.Name == "compile":
			for _, c := range n.Children {
				switch c.Name {
				case "dominant_extract":
					lay["core.policies"] += float64(c.Attrs["policies"])
				case "slot_energy_rows":
					lay["core.cover_entries"] += float64(c.Attrs["entries"])
				}
			}
		case n.Name == "solve" && !seenSolve:
			seenSolve = true
			lay["core.shards"] = float64(n.Attrs["shards"])
			for _, c := range n.Children {
				if c.Name == "decompose" {
					lay["core.components"] = float64(c.Attrs["components"])
				}
			}
		}
	}
}

// addOnlineLayers splits one operation's online time by the clock: the
// driver (netsim or transport) build/run/close, the node steps inside the
// runs, and the remainder of online.Run outside every driver call.
func addOnlineLayers(lay map[string]float64, c *onlineClock, onlineWall time.Duration, st online.Stats, socket bool) {
	driver := c.build + c.run + c.close
	lay["online.prepare_s"] = sec(onlineWall - driver)
	lay["online.step_s"] = sec(c.stepTotal())
	lay["online.negotiations"] = float64(c.builds)
	sessions := 0
	for _, n := range st.Negotiations {
		sessions += n.Sessions
	}
	lay["online.sessions"] = float64(sessions)
	lay["online.rounds"] = float64(st.TotalRounds())
	lay["online.messages"] = float64(st.TotalMessages())
	perRound := 0.0
	if c.rounds > 0 {
		perRound = float64(c.run) / float64(c.rounds) / float64(time.Microsecond)
	}
	if socket {
		lay["transport.build_ms"] = ms(c.build)
		lay["transport.run_s"] = sec(c.run)
		lay["transport.close_ms"] = ms(c.close)
		lay["transport.round_us"] = perRound
		return
	}
	lay["netsim.run_s"] = sec(c.run + c.build + c.close)
	lay["netsim.round_us"] = perRound
}

// recordReferences runs the shipped binaries on every instance index and
// writes the reference tables the checks compare against.
func recordReferences(bin, work, refDir string) error {
	dir := filepath.Join(work, "record")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{Bin: bin, Work: dir}
	var fleet, fig16 references
	for idx := 0; idx < refInstances; idx++ {
		if _, err := runProc(dir, filepath.Join(bin, "haste"), "gen",
			"--fleet", strconv.Itoa(fleetTasks), "--seed", strconv.FormatInt(instanceSeed(idx), 10),
			"--out", fleetFile); err != nil {
			return err
		}
		pr, err := runProc(dir, filepath.Join(bin, "haste"), "eval", "--instance", fleetFile)
		if err != nil {
			return err
		}
		fleet.Tables = append(fleet.Tables, string(pr.Stdout))
		tbl, _, err := fig16Binary(e, idx, "mem")
		if err != nil {
			return err
		}
		fig16.Tables = append(fig16.Tables, tbl)
		fmt.Fprintf(os.Stderr, "recorded instance %d\n", idx)
	}
	for name, r := range map[string]references{"fleet-eval.json": fleet, "fig16.json": fig16} {
		b, err := json.MarshalIndent(r, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(refDir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// stripFooter removes the "(figN finished in …)" timing footer `haste run`
// prints under each table; everything above it is deterministic.
func stripFooter(s string) string {
	if i := strings.Index(s, "\n("); i >= 0 {
		return s[:i+1]
	}
	return s
}
