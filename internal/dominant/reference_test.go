package dominant

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"haste/internal/geom"
	"haste/internal/model"
)

// extractSubsetRef is ExtractSubset as it stood before the byte-keyed
// deduplication: fmt.Sprint set keys, a map of first-seen policies and a
// per-set membership map for the recentring. It is the oracle of
// TestExtractSubsetMatchesReference.
func extractSubsetRef(in *model.Instance, chargerID int, taskIDs []int) []Policy {
	c := in.Chargers[chargerID]
	p := in.Params
	var arcs []arcTask
	for _, id := range taskIDs {
		t := in.Tasks[id]
		if !p.Chargeable(c, t) {
			continue
		}
		var a geom.Arc
		if c.Pos.Dist(t.Pos) == 0 {
			a = geom.NewArc(0, geom.TwoPi)
		} else {
			a = geom.ArcAround(geom.Azimuth(c.Pos, t.Pos), p.ChargeAngle)
		}
		arcs = append(arcs, arcTask{t.ID, a})
	}
	if len(arcs) == 0 {
		return []Policy{{Idle: true}}
	}
	var candidates []float64
	for _, a := range arcs {
		if !a.arc.Full() {
			candidates = append(candidates, a.arc.Lo)
		}
	}
	if len(candidates) == 0 {
		candidates = []float64{0}
	}
	seen := make(map[string]Policy)
	for _, theta := range candidates {
		var covers []int
		for _, a := range arcs {
			if a.arc.Contains(theta) {
				covers = append(covers, a.id)
			}
		}
		sort.Ints(covers)
		key := fmt.Sprint(covers)
		if _, ok := seen[key]; !ok {
			seen[key] = Policy{Orientation: centerOrientationRef(theta, covers, arcs), Covers: covers}
		}
	}
	all := make([]Policy, 0, len(seen))
	for _, pol := range seen {
		all = append(all, pol)
	}
	var out []Policy
	for i, a := range all {
		maximal := true
		for j, b := range all {
			if i != j && strictSubset(a.Covers, b.Covers) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Orientation != out[j].Orientation {
			return out[i].Orientation < out[j].Orientation
		}
		return fmt.Sprint(out[i].Covers) < fmt.Sprint(out[j].Covers)
	})
	return out
}

func centerOrientationRef(theta float64, covers []int, arcs []arcTask) float64 {
	inSet := make(map[int]bool, len(covers))
	for _, id := range covers {
		inSet[id] = true
	}
	fwd, bwd := geom.TwoPi, geom.TwoPi
	for _, a := range arcs {
		if !inSet[a.id] || a.arc.Full() {
			continue
		}
		f := geom.NormalizeAngle(a.arc.Lo + a.arc.Width - theta)
		b := geom.NormalizeAngle(theta - a.arc.Lo)
		if f < fwd {
			fwd = f
		}
		if b < bwd {
			bwd = b
		}
	}
	if fwd >= geom.TwoPi && bwd >= geom.TwoPi {
		return theta
	}
	return geom.NormalizeAngle(theta + (fwd-bwd)/2)
}

// coarseRing places tasks at azimuths drawn from a 15° lattice, several
// per azimuth at different ranges, plus the odd device sitting on the
// charger. Tasks sharing an azimuth have identical arcs, so distinct
// tasks propose equal candidate orientations — the ties that decide
// which candidate a set is first seen at. (Two distinct maximal sets
// cannot share a representative orientation: it would cover both.)
func coarseRing(rng *rand.Rand) *model.Instance {
	angle := 15 * float64(1+rng.Intn(24))
	in := ringInstance(angle)
	m := 1 + rng.Intn(14)
	for j := 0; j < m; j++ {
		a := geom.Deg(15 * float64(rng.Intn(24)))
		r := 1 + 8*rng.Float64()
		pos := geom.Point{X: r * math.Cos(a), Y: r * math.Sin(a)}
		if rng.Intn(20) == 0 {
			pos = geom.Point{}
		}
		in.Tasks = append(in.Tasks, model.Task{
			ID: j, Pos: pos, Phi: geom.NormalizeAngle(a + math.Pi),
			Release: 0, End: 10, Energy: 100, Weight: 1,
		})
	}
	return in
}

// ExtractSubset ≡ its pre-byte-key reference, policy for policy, on
// random rings: sorted, unsorted and duplicated candidate lists, and
// instances where distinct tasks propose equal candidate orientations.
func TestExtractSubsetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ties := 0
	for trial := 0; trial < 2000; trial++ {
		var in *model.Instance
		if trial%2 == 0 {
			in = coarseRing(rng)
		} else {
			in = randomRing(rng)
		}
		m := len(in.Tasks)
		sorted := make([]int, m)
		for j := range sorted {
			sorted[j] = j
		}
		shuffled := rng.Perm(m)
		var dup []int
		for k := 0; k < m+rng.Intn(m+1); k++ {
			dup = append(dup, rng.Intn(m))
		}
		for _, ids := range [][]int{sorted, shuffled, dup} {
			want := extractSubsetRef(in, 0, ids)
			got := ExtractSubset(in, 0, ids)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, ids %v: got %v, reference %v", trial, ids, got, want)
			}
		}
		if candidateTie(in) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no two tasks proposed the same candidate orientation; the tie case is vacuous")
	}
}

// candidateTie reports whether two distinct chargeable tasks of charger 0
// have arcs starting at the same orientation.
func candidateTie(in *model.Instance) bool {
	c := in.Chargers[0]
	starts := map[float64]bool{}
	for _, tk := range in.Tasks {
		if !in.Params.Chargeable(c, tk) || c.Pos.Dist(tk.Pos) == 0 {
			continue
		}
		lo := geom.ArcAround(geom.Azimuth(c.Pos, tk.Pos), in.Params.ChargeAngle).Lo
		if starts[lo] {
			return true
		}
		starts[lo] = true
	}
	return false
}
