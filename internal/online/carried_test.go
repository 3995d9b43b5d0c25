package online

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"haste/internal/core"
	"haste/internal/dominant"
	"haste/internal/model"
	"haste/internal/workload"
)

// The carried run state ≡ from-scratch derivation, at every negotiation
// of a run: the baseline energies are bit-equal to a slot-by-slot walk of
// the whole locked prefix, and every agent's Γ and row-resolved covers
// deep-equal a fresh extraction over its known row tasks.
func TestCarriedStateMatchesFromScratch(t *testing.T) {
	instances := []struct {
		name string
		p    func(t *testing.T) *core.Problem
		// skips requires at least one skipped negotiation (maxEnd <= lockUntil)
		// followed by one that ran.
		skips bool
	}{
		{"paper-default", func(t *testing.T) *core.Problem {
			return mustProblem(t, workload.Default().Generate(rand.New(rand.NewSource(51))))
		}, false},
		{"clustered-fleet", func(t *testing.T) *core.Problem {
			return mustProblem(t, workload.FleetScale(400).Generate(rand.New(rand.NewSource(52))))
		}, false},
		{"fleet2000", func(t *testing.T) *core.Problem {
			return mustProblem(t, workload.FleetScale(2000).Generate(rand.New(rand.NewSource(53))))
		}, false},
		{"tau3-skip", skippingProblem, true},
		{"patched", patchedProblem, false},
	}
	cells := []struct {
		name string
		opt  Options
	}{
		{"c1", Options{Colors: 1}},
		{"c3", Options{Colors: 3, Samples: 6}}, // few samples keep the race run short
		{"c1-drop", Options{Colors: 1, DropRate: 0.1}},
	}
	for _, inst := range instances {
		p := inst.p(t)
		for _, cell := range cells {
			t.Run(inst.name+"/"+cell.name, func(t *testing.T) {
				opt := cell.opt
				opt.Seed = 9
				checks, lastSlot := 0, -1
				res, err := run(p, opt, func(neg negotiation, isKnown []bool, orient [][]float64) {
					checks++
					lastSlot = neg.Slot
					lockUntil := min(neg.Slot+p.In.Params.Tau, p.K)
					checkCarriedState(t, p, neg, isKnown, orient, lockUntil)
				})
				if err != nil {
					t.Fatal(err)
				}
				if checks == 0 {
					t.Fatal("no negotiation ran; the check is vacuous")
				}
				if inst.skips {
					skipped := false
					for _, ns := range res.Stats.Negotiations {
						if ns.Slot < lastSlot && ns.Sessions == 0 && ns.Rounds == 0 {
							skipped = true
						}
					}
					if !skipped || checks == len(res.Stats.Negotiations) {
						t.Fatalf("no skipped negotiation before slot %d: %+v", lastSlot, res.Stats.Negotiations)
					}
				}
			})
		}
	}
}

func checkCarriedState(t *testing.T, p *core.Problem, neg negotiation, isKnown []bool, orient [][]float64, lockUntil int) {
	t.Helper()
	want := perceivedEnergiesOracle(p, orient, isKnown, lockUntil)
	for j := range want {
		if math.Float64bits(neg.baseline[j]) != math.Float64bits(want[j]) {
			t.Fatalf("slot %d: baseline of task %d = %v, from scratch %v", neg.Slot, j, neg.baseline[j], want[j])
		}
	}
	for i, a := range neg.agents {
		row := p.ChargerRow(i)
		pols := dominant.ExtractSubset(p.In, i, knownRowTasks(row, isKnown))
		if !reflect.DeepEqual(a.policies, pols) {
			t.Fatalf("slot %d, charger %d: carried Γ %v, fresh %v", neg.Slot, i, a.policies, pols)
		}
		if covers := resolveCoversOracle(p.In.Tasks, row, pols); !reflect.DeepEqual(a.covers, covers) {
			t.Fatalf("slot %d, charger %d: carried covers %v, fresh %v", neg.Slot, i, a.covers, covers)
		}
	}
}

// perceivedEnergiesOracle is the from-scratch baseline: the relaxed
// energy each known task harvested from the committed timeline during
// slots [0, upTo), walking every slot and re-testing coverage.
func perceivedEnergiesOracle(p *core.Problem, orient [][]float64, isKnown []bool, upTo int) []float64 {
	in := p.In
	e := make([]float64, len(in.Tasks))
	if upTo > p.K {
		upTo = p.K
	}
	for i := range in.Chargers {
		var reach []core.CoverEntry
		for _, ent := range p.ChargerRow(i) {
			if ent.De > 0 && isKnown[ent.Task] {
				reach = append(reach, ent)
			}
		}
		if len(reach) == 0 {
			continue
		}
		cur := math.NaN()
		for k := 0; k < upTo; k++ {
			if k < len(orient[i]) && !math.IsNaN(orient[i][k]) {
				cur = orient[i][k]
			}
			if math.IsNaN(cur) {
				continue
			}
			for _, ent := range reach {
				j := int(ent.Task)
				if in.Tasks[j].ActiveAt(k) && in.Params.Covers(in.Chargers[i], cur, in.Tasks[j]) {
					e[j] += ent.De
				}
			}
		}
	}
	return e
}

// resolveCoversOracle locates every cover with positive slot energy in
// the row by lookup, independently of resolveCovers' merge, and attaches
// its task's window.
func resolveCoversOracle(tasks []model.Task, row []core.CoverEntry, pols []dominant.Policy) [][]windowedCover {
	pos := map[int]int{}
	for l, ent := range row {
		pos[int(ent.Task)] = l
	}
	out := make([][]windowedCover, len(pols))
	for pol, g := range pols {
		if g.Idle {
			continue
		}
		for _, j := range g.Covers {
			l, ok := pos[j]
			if !ok {
				panic(fmt.Sprintf("cover %d outside the row", j))
			}
			if de := row[l].De; de > 0 {
				te := taskEnergy{task: int32(j), pos: int32(l), de: de}
				out[pol] = append(out[pol], windowedCover{te, int32(tasks[j].Release), int32(tasks[j].End)})
			}
		}
	}
	return out
}

// skippingProblem has τ = 3 and three arrival phases: early tasks that
// all end by slot 8, one task released at 12 that ends at 13 — its
// negotiation is skipped, since nothing known outlives lockUntil = 15 —
// and a late batch from slot 16 on, whose negotiations must carry the
// cover counts across the skipped one. Validation requires windows of at
// least 2τ, under which no arrival is ever skipped, so the lone task's
// window is shortened after the compile (rows and Γ do not depend on
// windows).
func skippingProblem(t *testing.T) *core.Problem {
	cfg := workload.Default()
	cfg.NumChargers, cfg.NumTasks, cfg.FieldSide = 10, 40, 24
	cfg.Params.Tau = 3
	rng := rand.New(rand.NewSource(54))
	in := cfg.Generate(rng)
	for j := range in.Tasks {
		tk := &in.Tasks[j]
		switch {
		case j < 15:
			tk.Release = rng.Intn(3)
			tk.End = tk.Release + 6
		case j == 15:
			tk.Release, tk.End = 12, 18
		default:
			tk.Release = 16 + rng.Intn(5)
			tk.End = tk.Release + 6 + rng.Intn(5)
		}
	}
	p := mustProblem(t, in)
	p.In.Tasks[15].End = 13
	return p
}

// patchedProblem compiles a clustered fleet and patches it through
// AddTask and RemoveTask, so the fully known rows' Γ shortcut reads
// Gamma rows that the incremental path re-extracted.
func patchedProblem(t *testing.T) *core.Problem {
	in := workload.FleetScale(400).Generate(rand.New(rand.NewSource(55)))
	p := mustProblem(t, in)
	rng := rand.New(rand.NewSource(56))
	for k := 0; k < 20; k++ {
		tk := p.In.Tasks[rng.Intn(len(p.In.Tasks))]
		tk.Pos.X += 0.5 * (rng.Float64() - 0.5)
		tk.Pos.Y += 0.5 * (rng.Float64() - 0.5)
		tk.Release = rng.Intn(13)
		tk.End = tk.Release + 4 + rng.Intn(8)
		if _, err := p.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 10; k++ {
		if _, err := p.RemoveTask(rng.Intn(len(p.In.Tasks))); err != nil {
			t.Fatal(err)
		}
	}
	return p
}
