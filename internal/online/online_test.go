package online

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"haste/internal/core"
	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/netsim"
	"haste/internal/opt"
	"haste/internal/sim"
	"haste/internal/workload"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func mustProblem(t *testing.T, in *model.Instance) *core.Problem {
	t.Helper()
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

// mustRun runs the online scenario on the default in-memory substrate,
// where Run cannot fail — any error is a test bug.
func mustRun(t testing.TB, p *core.Problem, opt Options) Result {
	t.Helper()
	res, err := Run(p, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func singleTaskInstance() *model.Instance {
	return &model.Instance{
		Chargers: []model.Charger{{ID: 0, Pos: geom.Point{X: 0, Y: 0}}},
		Tasks: []model.Task{{
			ID: 0, Pos: geom.Point{X: 10, Y: 0}, Phi: math.Pi,
			Release: 2, End: 8, Energy: 1e6, Weight: 1,
		}},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.Deg(60),
			SlotSeconds: 60, Rho: 1.0 / 12, Tau: 1,
		},
	}
}

// One charger, one task released at slot 2 with τ = 1: the charger can
// orient no earlier than slot 3 and pays one switching delay. Five covered
// slots: 240·(1−1/12) + 4·240 = 1180 J.
func TestRunSingleTaskTiming(t *testing.T) {
	p := mustProblem(t, singleTaskInstance())
	res := mustRun(t, p, Options{Seed: 1})
	if res.Outcome.Switches != 1 {
		t.Errorf("switches = %d, want 1", res.Outcome.Switches)
	}
	if !almostEq(res.Outcome.Energy[0], 1180) {
		t.Errorf("energy = %v, want 1180", res.Outcome.Energy[0])
	}
	// Slots before release+τ must carry no command.
	for k := 0; k < 3; k++ {
		if !math.IsNaN(res.Orientations[0][k]) {
			t.Errorf("slot %d has command %v, want none", k, res.Orientations[0][k])
		}
	}
	if math.IsNaN(res.Orientations[0][3]) {
		t.Error("slot 3 should carry the first command")
	}
	// An isolated charger negotiates without sending any messages.
	if res.Stats.TotalMessages() != 0 {
		t.Errorf("messages = %d, want 0 for isolated charger", res.Stats.TotalMessages())
	}
}

func onlineWorkload(seed int64) *model.Instance {
	cfg := workload.SmallScale()
	cfg.NumChargers = 6
	cfg.NumTasks = 12
	cfg.FieldSide = 15
	cfg.ReleaseMax = 4
	cfg.DurationMin, cfg.DurationMax = 2, 6
	cfg.Params.ReceiveAngle = geom.Deg(120)
	return cfg.Generate(rand.New(rand.NewSource(seed)))
}

func TestRunDeterministicAndParallelAgrees(t *testing.T) {
	in := onlineWorkload(111)
	p := mustProblem(t, in)
	a := mustRun(t, p, Options{Seed: 7})
	b := mustRun(t, p, Options{Seed: 7})
	c := mustRun(t, p, Options{Seed: 7, Driver: concurrentFactory})
	if !almostEq(a.Outcome.Utility, b.Outcome.Utility) {
		t.Fatalf("same seed diverged: %v vs %v", a.Outcome.Utility, b.Outcome.Utility)
	}
	if !reflect.DeepEqual(a.Stats, c.Stats) {
		t.Fatalf("concurrent-fan stats differ: %+v vs %+v", a.Stats, c.Stats)
	}
	for i := range a.Orientations {
		for k := range a.Orientations[i] {
			av, cv := a.Orientations[i][k], c.Orientations[i][k]
			if (math.IsNaN(av) != math.IsNaN(cv)) || (!math.IsNaN(av) && av != cv) {
				t.Fatalf("concurrent-fan plan differs at (%d,%d): %v vs %v", i, k, av, cv)
			}
		}
	}
}

func TestRunProducesMessagesWhenNeighborsExist(t *testing.T) {
	in := onlineWorkload(112)
	p := mustProblem(t, in)
	// Verify the workload actually has neighboring chargers.
	hasNeighbors := false
	for _, ns := range in.Neighbors() {
		if len(ns) > 0 {
			hasNeighbors = true
		}
	}
	if !hasNeighbors {
		t.Skip("workload has no neighboring chargers")
	}
	res := mustRun(t, p, Options{Seed: 3})
	if res.Stats.TotalMessages() == 0 {
		t.Error("no control messages despite neighboring chargers")
	}
	if res.Stats.TotalRounds() == 0 {
		t.Error("no negotiation rounds recorded")
	}
	if res.Outcome.Utility <= 0 || res.Outcome.Utility > 1+1e-9 {
		t.Errorf("utility out of range: %v", res.Outcome.Utility)
	}
}

// Theorem 6.1: the online algorithm is ½(1−ρ)(1−1/e)-competitive against
// the offline optimum. Verify against the exact HASTE-R optimum (an upper
// bound on the HASTE optimum) on small instances.
func TestRunMeetsCompetitiveBound(t *testing.T) {
	bound := 0.5 * (1 - 1.0/12) * (1 - 1/math.E)
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.SmallScale()
		cfg.NumChargers, cfg.NumTasks = 3, 6
		cfg.FieldSide = 8
		cfg.ReleaseMax = 2
		cfg.DurationMin, cfg.DurationMax = 2, 4
		in := cfg.Generate(rand.New(rand.NewSource(200 + seed)))
		p := mustProblem(t, in)
		res := mustRun(t, p, Options{Seed: seed})
		sol, err := opt.Solve(p, opt.Options{MaxNodes: 20_000_000})
		if err != nil {
			t.Skipf("seed %d: OPT too large: %v", seed, err)
		}
		if sol.Utility == 0 {
			continue
		}
		if ratio := res.Outcome.Utility / sol.Utility; ratio < bound {
			t.Errorf("seed %d: competitive ratio %v below bound %v", seed, ratio, bound)
		}
	}
}

// The offline algorithm knows the future; on aggregate it must not lose to
// the online algorithm on the same workloads.
func TestOfflineBeatsOnlineOnAggregate(t *testing.T) {
	var offSum, onSum float64
	for seed := int64(0); seed < 10; seed++ {
		in := onlineWorkload(300 + seed)
		p := mustProblem(t, in)
		off := core.TabularGreedy(p, core.DefaultOptions(1))
		offSum += sim.Execute(p, off.Schedule).Utility
		onSum += mustRun(t, p, Options{Seed: seed}).Outcome.Utility
	}
	if offSum < onSum-1e-6 {
		t.Errorf("offline aggregate %v below online %v", offSum, onSum)
	}
	if onSum < 0.5*offSum {
		t.Errorf("online aggregate %v implausibly far below offline %v", onSum, offSum)
	}
}

func TestRunWithColors(t *testing.T) {
	in := onlineWorkload(113)
	p := mustProblem(t, in)
	res := mustRun(t, p, Options{Seed: 4, Colors: 4})
	if res.Outcome.Utility <= 0 {
		t.Errorf("C=4 utility = %v", res.Outcome.Utility)
	}
	res1 := mustRun(t, p, Options{Seed: 4, Colors: 1})
	if res.Outcome.Utility < 0.7*res1.Outcome.Utility {
		t.Errorf("C=4 utility %v collapsed versus C=1 %v", res.Outcome.Utility, res1.Outcome.Utility)
	}
}

// Pinned multi-color golden: the experiments golden suite only exercises
// the online path with Colors = 1, so a change to colorAt's sample→color
// mapping (e.g. a revert to the biased `hash % C`) would slip past it.
// This pins the exact seeded outcome for a non-power-of-two color count;
// regenerate the constants deliberately if the mapping ever changes again.
func TestRunMultiColorGolden(t *testing.T) {
	in := onlineWorkload(113)
	p := mustProblem(t, in)
	res := mustRun(t, p, Options{Seed: 4, Colors: 3})
	const wantUtility = 0.6153407608729332
	if res.Outcome.Utility != wantUtility {
		t.Errorf("C=3 utility = %v, want pinned %v", res.Outcome.Utility, wantUtility)
	}
	if res.Outcome.Switches != 11 {
		t.Errorf("C=3 switches = %d, want pinned 11", res.Outcome.Switches)
	}
	if got := res.Stats.TotalMessages(); got != 496 {
		t.Errorf("C=3 messages = %d, want pinned 496", got)
	}
	if got := res.Stats.TotalRounds(); got != 175 {
		t.Errorf("C=3 rounds = %d, want pinned 175", got)
	}
}

// Failure injection: the protocol must terminate and still produce a
// usable plan under heavy message loss.
func TestRunUnderMessageLoss(t *testing.T) {
	in := onlineWorkload(114)
	p := mustProblem(t, in)
	clean := mustRun(t, p, Options{Seed: 5})
	lossy := mustRun(t, p, Options{Seed: 5, DropRate: 0.3, DupRate: 0.1})
	if lossy.Outcome.Utility <= 0 || lossy.Outcome.Utility > 1+1e-9 {
		t.Fatalf("lossy utility out of range: %v", lossy.Outcome.Utility)
	}
	if lossy.Outcome.Utility < 0.5*clean.Outcome.Utility {
		t.Errorf("lossy run %v collapsed versus clean %v", lossy.Outcome.Utility, clean.Outcome.Utility)
	}
	if lossy.Stats.Net.Dropped == 0 {
		t.Error("expected dropped messages to be accounted")
	}
}

// Satellite regression: a lone bidder with no neighbors still bids,
// commits and burns rounds — those sessions used to vanish from
// NegotiationStats because no message was ever delivered, leaving the
// Fig. 16 totals short of Stats.Net.
func TestLoneBidderSessionsCounted(t *testing.T) {
	p := mustProblem(t, singleTaskInstance())
	res := mustRun(t, p, Options{Seed: 1})
	var sessions int
	for _, n := range res.Stats.Negotiations {
		sessions += n.Sessions
	}
	if sessions == 0 {
		t.Error("isolated charger's sessions not counted")
	}
	if res.Stats.TotalRounds() == 0 {
		t.Error("isolated charger's rounds not counted")
	}
	if res.Stats.TotalMessages() != 0 {
		t.Errorf("messages = %d, want 0 for isolated charger", res.Stats.TotalMessages())
	}
	if got, want := res.Stats.TotalRounds(), res.Stats.Net.Rounds; got != want {
		t.Errorf("per-negotiation rounds %d != network rounds %d", got, want)
	}
}

// Satellite regression: negotiate used to swallow ErrNoQuiescence — the
// session's traffic landed in Stats.Net but not in the per-negotiation
// totals, and the degradation was invisible. Force non-quiescence with a
// tiny MaxRounds and check both the surfaced counter and the exact
// reconciliation.
func TestNonQuiescentSessionsAccounted(t *testing.T) {
	in := onlineWorkload(112)
	p := mustProblem(t, in)
	res := mustRun(t, p, Options{Seed: 3, MaxRounds: 3})
	if res.Stats.NonQuiescentSessions == 0 {
		t.Fatal("MaxRounds=3 tripped no session; scenario does not exercise the path")
	}
	if got, want := res.Stats.TotalMessages(), res.Stats.Net.Messages; got != want {
		t.Errorf("per-negotiation messages %d != network messages %d", got, want)
	}
	if got, want := res.Stats.TotalRounds(), res.Stats.Net.Rounds; got != want {
		t.Errorf("per-negotiation rounds %d != network rounds %d", got, want)
	}
}

// Satellite regression: colorAt used x % colors, whose modulo bias
// over-weights the first 2^64 mod C residues for non-power-of-two C. Pin
// the unbiased multiply-shift mapping and its uniformity for such C.
func TestColorAtLemireReduction(t *testing.T) {
	// The mapping must be the Lemire reduction of the splitmix64 hash
	// (reimplemented here so a revert to `hash % colors` fails the test).
	lemire := func(seed int64, s, i, k, colors int) int {
		x := uint64(seed) ^ uint64(s)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9 ^ uint64(k)*0x94d049bb133111eb
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		hi, _ := bits.Mul64(x, uint64(colors))
		return int(hi)
	}
	for _, colors := range []int{2, 3, 5, 6, 7} {
		counts := make([]int, colors)
		n := 0
		for s := 0; s < 3; s++ {
			for i := 0; i < 12; i++ {
				for k := 0; k < 40; k++ {
					c := colorAt(99, s, i, k, colors)
					if c < 0 || c >= colors {
						t.Fatalf("colorAt out of range: %d (C=%d)", c, colors)
					}
					if want := lemire(99, s, i, k, colors); c != want {
						t.Fatalf("colorAt(99,%d,%d,%d,%d) = %d, want Lemire reduction %d", s, i, k, colors, c, want)
					}
					counts[c]++
					n++
				}
			}
		}
		for c, cnt := range counts {
			frac := float64(cnt) / float64(n)
			want := 1.0 / float64(colors)
			if frac < want*0.6 || frac > want*1.4 {
				t.Errorf("C=%d color %d frequency %v far from uniform %v", colors, c, frac, want)
			}
		}
	}
}

func TestColorAt(t *testing.T) {
	// Deterministic, in range, and reasonably uniform.
	counts := make([]int, 4)
	for s := 0; s < 4; s++ {
		for i := 0; i < 10; i++ {
			for k := 0; k < 50; k++ {
				c := colorAt(42, s, i, k, 4)
				if c < 0 || c >= 4 {
					t.Fatalf("color %d out of range", c)
				}
				if c != colorAt(42, s, i, k, 4) {
					t.Fatal("colorAt not deterministic")
				}
				counts[c]++
			}
		}
	}
	total := 4 * 10 * 50
	for c, cnt := range counts {
		frac := float64(cnt) / float64(total)
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("color %d frequency %v far from uniform", c, frac)
		}
	}
	if colorAt(42, 3, 1, 2, 1) != 0 {
		t.Error("single color must map to 0")
	}
}

func TestKnownNeighborsLocality(t *testing.T) {
	// Two far-apart clusters must not become neighbors.
	in := &model.Instance{
		Chargers: []model.Charger{
			{ID: 0, Pos: geom.Point{X: 0, Y: 0}},
			{ID: 1, Pos: geom.Point{X: 4, Y: 0}},
			{ID: 2, Pos: geom.Point{X: 100, Y: 0}},
			{ID: 3, Pos: geom.Point{X: 104, Y: 0}},
		},
		Tasks: []model.Task{
			{ID: 0, Pos: geom.Point{X: 2, Y: 0}, Phi: 0, Release: 0, End: 4, Energy: 100, Weight: 0.5},
			{ID: 1, Pos: geom.Point{X: 102, Y: 0}, Phi: 0, Release: 0, End: 4, Energy: 100, Weight: 0.5},
		},
		Params: model.Params{
			Alpha: 10000, Beta: 40, Radius: 20,
			ChargeAngle: geom.Deg(60), ReceiveAngle: geom.TwoPi,
			SlotSeconds: 60, Rho: 0, Tau: 0,
		},
	}
	p := mustProblem(t, in)
	nb := knownNeighbors(p, []int{0, 1})
	want := [][]int{{1}, {0}, {3}, {2}}
	if !reflect.DeepEqual(nb, want) {
		t.Fatalf("neighbors = %v, want %v", nb, want)
	}
	// With only task 0 known, the right cluster has no neighbors yet.
	nb = knownNeighbors(p, []int{0})
	if len(nb[2]) != 0 || len(nb[3]) != 0 {
		t.Fatalf("right cluster should be isolated: %v", nb)
	}
}

// A failure rate that is not a probability fails Run up front, whether or
// not any negotiation session would start. The never-negotiating
// instance's only task is out of its charger's reach, so nobody ever bids
// and no session reaches netsim, which used to be the only place the
// rates were checked: such a run accepted a bad rate silently.
func TestRunRejectsBadRates(t *testing.T) {
	never := singleTaskInstance()
	never.Tasks[0].Pos = geom.Point{X: 100, Y: 0} // beyond Radius 20
	instances := []struct {
		name string
		p    *core.Problem
	}{
		{"negotiating", mustProblem(t, singleTaskInstance())},
		{"never-negotiating", mustProblem(t, never)},
	}
	if res := mustRun(t, instances[1].p, Options{Seed: 1}); res.Stats.Net.Rounds != 0 {
		t.Fatalf("never-negotiating instance ran %d rounds", res.Stats.Net.Rounds)
	}
	set := map[string]func(*Options, float64){
		"DropRate":  func(o *Options, v float64) { o.DropRate = v },
		"DupRate":   func(o *Options, v float64) { o.DupRate = v },
		"DelayRate": func(o *Options, v float64) { o.DelayRate = v },
		"CrashRate": func(o *Options, v float64) { o.CrashRate = v },
	}
	for _, inst := range instances {
		for field, setRate := range set {
			for _, v := range []float64{-1, math.NaN(), math.Inf(1), 1.5} {
				opt := Options{Seed: 1}
				setRate(&opt, v)
				if _, err := Run(inst.p, opt); !errors.Is(err, netsim.ErrBadRate) {
					t.Errorf("%s: %s = %v: err = %v, want netsim.ErrBadRate", inst.name, field, v, err)
				}
			}
			for _, v := range []float64{0, 1} {
				opt := Options{Seed: 1}
				setRate(&opt, v)
				if _, err := Run(inst.p, opt); err != nil {
					t.Errorf("%s: %s = %v is a probability but Run failed: %v", inst.name, field, v, err)
				}
			}
		}
	}
}
