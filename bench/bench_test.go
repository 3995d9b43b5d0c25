package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/netsim"
	"haste/internal/online"
	"haste/internal/serve"
	"haste/internal/workload"
)

// The benchmark's self-test: run with `go test ./...` from bench/.

// TestMetricsMatchBenchmarkJSON keeps the printed metric sets and the
// workload list in step with BENCHMARK.json at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
}

// TestFailingProgramEndsOnTime gives the sequential workloads a haste
// whose every measured operation fails: the measurement loops must end on
// the budget and report ok_frac 0 rather than spawn failing runs forever.
// The stand-in's gen and in-memory sweep exit 0 with no output; the fleet
// file it never writes also makes every traced in-process eval fail.
func TestFailingProgramEndsOnTime(t *testing.T) {
	root := t.TempDir()
	bin := filepath.Join(root, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	script := "#!/bin/sh\ncase \"$*\" in\ngen*|*\"--transport mem\"*) exit 0 ;;\nesac\necho broken >&2\nexit 1\n"
	if err := os.WriteFile(filepath.Join(bin, "haste"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"fleet-eval", false}, {"fleet-eval", true}, {"fig16-tcp", false}} {
		work := filepath.Join(root, "work", fmt.Sprintf("%s-%v", c.workload, c.trace))
		if err := os.MkdirAll(work, 0o755); err != nil {
			t.Fatal(err)
		}
		e := &env{Workload: c.workload, Seed: 1, Budget: time.Second, Trace: c.trace, Bin: bin, Work: work, Ref: "ref"}
		start := time.Now()
		out, err := workloads[c.workload](e)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("%s trace=%v: took %v on a 1 s budget", c.workload, c.trace, took)
		}
		if out.Attempted == 0 || out.Failed != out.Attempted || okFrac(out) != 0 {
			t.Errorf("%s trace=%v: %d of %d attempts failed, want all", c.workload, c.trace, out.Failed, out.Attempted)
		}
		if len(out.Flags) > maxFlags {
			t.Errorf("%s trace=%v: %d flags kept, limit %d", c.workload, c.trace, len(out.Flags), maxFlags)
		}
		var line strings.Builder
		if err := printResult(e, out, &line); err != nil {
			t.Fatalf("%s trace=%v: no result printed: %v", c.workload, c.trace, err)
		}
		var res result
		if err := json.Unmarshal([]byte(line.String()), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("%s trace=%v: result reads correct", c.workload, c.trace)
		}
		if !c.trace && res.Metrics["ok_frac"].Value != 0 {
			t.Errorf("%s: ok_frac %v, want 0", c.workload, res.Metrics["ok_frac"].Value)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) || orZero(median(nil)) != 0 {
		t.Error("an empty sample must have a NaN median that orZero maps to 0")
	}
}

// TestVmHWM checks that a running process's peak RSS is read from /proc.
func TestVmHWM(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc")
	}
	if mb := vmHWMMB(os.Getpid()); mb <= 0 || mb > 1<<20 {
		t.Fatalf("VmHWM of this process: %v MB", mb)
	}
}

func TestInstanceIndexFolds(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want int
	}{{0, 0}, {1, 1}, {refInstances, 0}, {refInstances + 3, 3}, {-1, refInstances - 1}} {
		if got := instanceIndex(c.seed); got != c.want {
			t.Errorf("instanceIndex(%d) = %d, want %d", c.seed, got, c.want)
		}
	}
}

// TestOnlineClockIsTransparent checks that timing the online path through
// the wrapped factory changes nothing the program computes, and that the
// clock's counts reconcile with the run's own Stats.
func TestOnlineClockIsTransparent(t *testing.T) {
	cfg := workload.Default()
	cfg.NumChargers, cfg.NumTasks = 12, 40
	cfg.DurationMin, cfg.DurationMax, cfg.ReleaseMax = 4, 12, 6
	p, err := core.NewProblem(cfg.Generate(rand.New(rand.NewSource(3))))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := online.Run(p, online.Options{Colors: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clock := &onlineClock{}
	timed, err := online.Run(p, online.Options{Colors: 1, Seed: 3, Driver: clock.factory(netsim.MemFactory)})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(plain.Orientations) != fmt.Sprint(timed.Orientations) ||
		plain.Outcome.Utility != timed.Outcome.Utility || plain.Stats.TotalMessages() != timed.Stats.TotalMessages() {
		t.Fatal("the timed driver changed the online outcome")
	}
	if clock.rounds != int64(timed.Stats.TotalRounds()) || clock.runs == 0 || clock.builds == 0 {
		t.Fatalf("clock saw %d rounds in %d runs over %d builds; the run reports %d rounds",
			clock.rounds, clock.runs, clock.builds, timed.Stats.TotalRounds())
	}
	if clock.stepTotal() <= 0 || clock.stepTotal() > clock.run {
		t.Fatalf("step total %v outside (0, run %v]", clock.stepTotal(), clock.run)
	}
}

// TestSessionMirror drives an in-process service through the benchmark's
// session generator and checks the final revision against the
// from-scratch solve the benchmark compares with.
func TestSessionMirror(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}))
	defer srv.Close()
	cl := newClient(srv.URL)
	f, raw := encodeInstance(workload.FleetScale(sessionTasks), 7)
	r, _, err := cl.do(http.MethodPost, "/v1/session", fmt.Appendf(nil, `{"colors":1,"instance":%s}`, raw))
	if err != nil || r.Status != http.StatusCreated {
		t.Fatalf("create: status %d, %v", r.Status, err)
	}
	g := newSessionGen(f, 11)
	for i := 0; i < 25; i++ {
		body, ref := g.patch(i%2 == 0)
		p, _, err := cl.do(http.MethodPatch, "/v1/session/"+r.SessionID, body)
		if err != nil || p.Status != http.StatusOK {
			t.Fatalf("patch %d: status %d, %v", i, p.Status, err)
		}
		if len(p.Refs) != 1 || p.Refs[0] != ref {
			t.Fatalf("patch %d: refs %v, want [%d]", i, p.Refs, ref)
		}
	}
	final, err := cl.session(r.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSession(g, final); err != nil {
		t.Fatal(err)
	}
}
