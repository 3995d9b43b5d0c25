// Package dominant implements Algorithm 1 of the paper: extraction of the
// dominant task sets of a directional charger.
//
// A set of tasks covered by charger s_i under some orientation is
// *dominant* if no other orientation covers a strict superset
// (Definition 4.1). Because the charger-side coverage condition for task j
// depends only on the azimuth a_j of the device from the charger, the set
// of orientations covering j is the circular arc of width A_s centered at
// a_j. Dominant task sets are therefore the maximal sets of tasks whose
// covering arcs share a common orientation, and the paper's rotational
// sweep reduces to an endpoint sweep over those arcs: every maximal set is
// attained at some arc start angle (rotating past a start angle is the only
// way a new task can enter the covered set).
package dominant

import (
	"encoding/binary"
	"fmt"
	"sort"

	"haste/internal/geom"
	"haste/internal/model"
)

// arcTask pairs a chargeable task with the circular arc of charger
// orientations that cover it.
type arcTask struct {
	id  int
	arc geom.Arc
}

// Policy is one candidate scheduling policy Θ_i^p for a charger: an
// orientation together with the dominant task set it covers. Covers holds
// task IDs in ascending order. An empty Covers with Idle set represents the
// "do nothing" policy used for chargers that cannot reach any task.
type Policy struct {
	Orientation float64 // a representative orientation attaining the set
	Covers      []int   // task IDs covered, ascending
	Idle        bool    // true for the trivial no-coverage policy
}

// String renders the policy compactly for logs and test failures.
func (p Policy) String() string {
	if p.Idle {
		return "idle"
	}
	return fmt.Sprintf("θ=%.1f°→%v", geom.ToDeg(p.Orientation), p.Covers)
}

// Extract returns the dominant task sets of charger i over all tasks of
// the instance, as Algorithm 1 does. The result is sorted by orientation.
// A charger with no chargeable task gets a single Idle policy so that the
// partition Θ_{i,k} is never empty (the matroid constraint selects exactly
// one policy per charger per slot).
func Extract(in *model.Instance, chargerID int) []Policy {
	ids := make([]int, 0, len(in.Tasks))
	for _, t := range in.Tasks {
		ids = append(ids, t.ID)
	}
	return ExtractSubset(in, chargerID, ids)
}

// ExtractAll runs Extract for every charger: Γ_i for i ∈ [n]. The
// all-tasks candidate slice is built once and shared across chargers
// (ExtractSubset only reads it), instead of regrown per charger.
func ExtractAll(in *model.Instance) [][]Policy {
	ids := make([]int, len(in.Tasks))
	for j := range ids {
		ids[j] = j
	}
	out := make([][]Policy, len(in.Chargers))
	for i := range in.Chargers {
		out[i] = ExtractSubset(in, i, ids)
	}
	return out
}

// ExtractSubset extracts dominant task sets considering only the tasks
// whose IDs appear in taskIDs. The online algorithm uses this to build
// policies over the tasks a charger has observed so far, and the per-slot
// ablation uses it with the tasks active in one slot.
func ExtractSubset(in *model.Instance, chargerID int, taskIDs []int) []Policy {
	c := in.Chargers[chargerID]
	p := in.Params

	// T_i: chargeable tasks among the candidates (Algorithm 1, line 1).
	arcs := make([]arcTask, 0, len(taskIDs))
	for _, id := range taskIDs {
		t := in.Tasks[id]
		if !p.Chargeable(c, t) {
			continue
		}
		var a geom.Arc
		if c.Pos.Dist(t.Pos) == 0 {
			a = geom.NewArc(0, geom.TwoPi) // coincident: covered by any orientation
		} else {
			a = geom.ArcAround(geom.Azimuth(c.Pos, t.Pos), p.ChargeAngle)
		}
		arcs = append(arcs, arcTask{t.ID, a})
	}
	if len(arcs) == 0 {
		return []Policy{{Idle: true}}
	}

	// Candidate orientations: every arc start angle. The covered set is
	// piecewise constant in θ and can only grow when θ crosses a start
	// angle, so each inclusion-maximal set is attained at one of them.
	// Full-circle arcs contribute no events; if all arcs are full, any
	// orientation works.
	candidates := make([]float64, 0, len(arcs))
	for _, a := range arcs {
		if !a.arc.Full() {
			candidates = append(candidates, a.arc.Lo)
		}
	}
	if len(candidates) == 0 {
		candidates = []float64{0}
	}

	// Distinct covered sets in first-seen order, deduplicated by an
	// injective byte key; the first candidate attaining a set decides its
	// representative orientation.
	var all []Policy
	seen := make(map[string]struct{}, len(candidates))
	key := make([]byte, 0, 8*len(arcs))
	buf := make([]int, 0, len(arcs))        // covered IDs at theta
	within := make([]arcTask, 0, len(arcs)) // the arcs containing theta
	for _, theta := range candidates {
		buf, within = buf[:0], within[:0]
		for _, a := range arcs {
			if a.arc.Contains(theta) {
				buf = append(buf, a.id)
				within = append(within, a)
			}
		}
		sort.Ints(buf)
		key = key[:0]
		for _, id := range buf {
			key = binary.LittleEndian.AppendUint64(key, uint64(id))
		}
		if _, ok := seen[string(key)]; ok {
			continue
		}
		seen[string(key)] = struct{}{}
		covers := append([]int(nil), buf...)
		all = append(all, Policy{Orientation: centerOrientation(theta, within), Covers: covers})
	}

	// Keep only maximal sets (Definition 4.1). out outlives the call (Γ
	// is cached), so it is not sized to the candidate sets.
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
		return setKey(out[i].Covers) < setKey(out[j].Covers)
	})
	return out
}

// centerOrientation recenters a feasible orientation inside the
// intersection of the covering arcs, to keep the representative
// orientation away from razor-edge boundaries. within holds the arcs
// containing theta — those of exactly the covered set.
func centerOrientation(theta float64, within []arcTask) float64 {
	fwd, bwd := geom.TwoPi, geom.TwoPi
	for _, a := range within {
		if a.arc.Full() {
			continue
		}
		f := geom.NormalizeAngle(a.arc.Lo + a.arc.Width - theta) // slack counterclockwise
		b := geom.NormalizeAngle(theta - a.arc.Lo)               // slack clockwise
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

// strictSubset reports whether sorted slice a ⊂ b strictly.
func strictSubset(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// setKey orders distinct sets of equal orientation in Γ.
func setKey(ids []int) string {
	return fmt.Sprint(ids)
}
