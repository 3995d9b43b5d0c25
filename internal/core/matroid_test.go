package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// Lemma 4.1: the scheduling constraint of HASTE-R is a partition matroid.
// The ground set is the union of the disjoint policy sets Θ_{i,k} (one per
// charger per time slot), and a selection is independent iff it picks at
// most one policy from every Θ_{i,k}. This file carries the independence
// oracle and an exhaustive checker of the matroid axioms of Definition
// 4.3; the schedulers' output is checked directly against the basis
// condition.

// element is one scheduling policy of the ground set S: the p-th dominant
// task set of charger i at time slot k (Θ_{i,k}^p).
type element struct{ charger, slot, policy int }

// partition describes M = (S, I): the slot count and |Γ_i| per charger.
// Capacity is 1 per partition, matching |X ∩ Θ_{i,k}| ≤ 1.
type partition struct {
	slots  int
	counts []int // counts[i] = |Γ_i|
}

// ground enumerates S = ∪ Θ_{i,k} in deterministic order.
func (m partition) ground() []element {
	var out []element
	for k := 0; k < m.slots; k++ {
		for i, c := range m.counts {
			for p := 0; p < c; p++ {
				out = append(out, element{i, k, p})
			}
		}
	}
	return out
}

func (m partition) valid(e element) bool {
	return e.charger >= 0 && e.charger < len(m.counts) &&
		e.slot >= 0 && e.slot < m.slots &&
		e.policy >= 0 && e.policy < m.counts[e.charger]
}

// independent reports whether X ∈ I: all elements valid and at most one
// element (so no duplicate) per partition Θ_{i,k}.
func (m partition) independent(set []element) bool {
	used := make(map[[2]int]bool, len(set))
	for _, e := range set {
		key := [2]int{e.charger, e.slot}
		if !m.valid(e) || used[key] {
			return false
		}
		used[key] = true
	}
	return true
}

// checkAxioms verifies the three matroid axioms on the given ground set
// by exhaustive enumeration of subsets up to size maxSize, returning a
// descriptive error on the first violation.
func checkAxioms(ground []element, indep func([]element) bool, maxSize int) error {
	// Axiom 1: ∅ ∈ I.
	if !indep(nil) {
		return fmt.Errorf("matroid axiom 1 violated: empty set not independent")
	}
	var indepSets [][]element
	var rec func(start int, cur []element)
	rec = func(start int, cur []element) {
		if indep(cur) {
			indepSets = append(indepSets, append([]element(nil), cur...))
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(ground); i++ {
			rec(i+1, append(cur, ground[i]))
		}
	}
	rec(0, nil)

	// Axiom 2 (heredity): X ⊆ Y ∈ I ⇒ X ∈ I. One-element deletions
	// suffice.
	for _, y := range indepSets {
		for drop := range y {
			x := append(append([]element{}, y[:drop]...), y[drop+1:]...)
			if !indep(x) {
				return fmt.Errorf("matroid axiom 2 violated: %v independent but subset %v is not", y, x)
			}
		}
	}

	// Axiom 3 (exchange): |X| < |Y|, both independent ⇒ ∃ y ∈ Y\X with
	// X ∪ {y} independent.
	for _, x := range indepSets {
		for _, y := range indepSets {
			if len(x) >= len(y) {
				continue
			}
			found := false
			for _, e := range y {
				if !containsElement(x, e) && indep(append(append([]element{}, x...), e)) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("matroid axiom 3 violated: |X|=%d |Y|=%d X=%v Y=%v", len(x), len(y), x, y)
			}
		}
	}
	return nil
}

func containsElement(set []element, e element) bool {
	for _, x := range set {
		if x == e {
			return true
		}
	}
	return false
}

// problemPartition is the partition matroid of a problem: K slots and
// |Γ_i| policies per charger.
func problemPartition(p *Problem) partition {
	m := partition{slots: p.K}
	for _, g := range p.Gamma {
		m.counts = append(m.counts, len(g))
	}
	return m
}

func TestMatroidShape(t *testing.T) {
	in := oneTaskInstance(480, 0, 2)
	p := mustProblem(t, in)
	m := problemPartition(p)
	if m.slots != 2 || len(m.counts) != 1 {
		t.Fatalf("matroid shape: %+v", m)
	}
	if m.counts[0] != len(p.Gamma[0]) {
		t.Fatalf("policy counts: %+v vs %d", m.counts, len(p.Gamma[0]))
	}
	if got, want := len(m.ground()), m.slots*len(p.Gamma[0]); got != want {
		t.Fatalf("|S| = %d, want %d", got, want)
	}
}

// small is the oracle tables' matroid: two slots, |Γ_0| = 2, |Γ_1| = 1.
func small() partition { return partition{slots: 2, counts: []int{2, 1}} }

func TestPartitionGroundSize(t *testing.T) {
	if got := len(small().ground()); got != 6 {
		t.Errorf("|S| = %d, want 6", got)
	}
}

func TestPartitionValid(t *testing.T) {
	m := small()
	for _, c := range []struct {
		e    element
		want bool
	}{
		{element{0, 0, 0}, true},
		{element{0, 1, 1}, true},
		{element{1, 1, 0}, true},
		{element{1, 0, 1}, false}, // charger 1 has only 1 policy
		{element{2, 0, 0}, false},
		{element{0, 2, 0}, false},
		{element{-1, 0, 0}, false},
	} {
		if got := m.valid(c.e); got != c.want {
			t.Errorf("valid(%v) = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestPartitionIndependent(t *testing.T) {
	m := small()
	for _, c := range []struct {
		set  []element
		want bool
	}{
		{nil, true},
		{[]element{{0, 0, 0}}, true},
		{[]element{{0, 0, 0}, {0, 1, 1}, {1, 0, 0}, {1, 1, 0}}, true},
		{[]element{{0, 0, 0}, {0, 0, 1}}, false}, // same partition
		{[]element{{0, 0, 0}, {0, 0, 0}}, false}, // duplicate
		{[]element{{1, 0, 1}}, false},            // invalid element
	} {
		if got := m.independent(c.set); got != c.want {
			t.Errorf("independent(%v) = %v, want %v", c.set, got, c.want)
		}
	}
}

// Lemma 4.1: verify the axioms exhaustively on small random partitions.
func TestPartitionMatroidAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 20; trial++ {
		m := partition{slots: 1 + rng.Intn(2)}
		for i, n := 0, 1+rng.Intn(2); i < n; i++ {
			m.counts = append(m.counts, 1+rng.Intn(3))
		}
		if len(m.ground()) > 8 {
			continue // keep enumeration small
		}
		if err := checkAxioms(m.ground(), m.independent, 4); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, m, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every trial was skipped")
	}
}

// Negative control: the checker must catch a non-matroid. Independence
// defined as "set is not exactly {a}" violates heredity.
func TestCheckAxiomsDetectsViolation(t *testing.T) {
	ground := []element{{0, 0, 0}, {0, 0, 1}}
	bogus := func(set []element) bool {
		return !(len(set) == 1 && set[0] == ground[0])
	}
	if err := checkAxioms(ground, bogus, 2); err == nil {
		t.Fatal("checker accepted a non-matroid")
	}
}

// Negative control for the exchange axiom: "all elements must share a
// slot" satisfies heredity but not exchange on a two-slot ground set.
func TestCheckAxiomsDetectsExchangeViolation(t *testing.T) {
	ground := []element{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}}
	sameSlot := func(set []element) bool {
		for i := 1; i < len(set); i++ {
			if set[i].slot != set[0].slot {
				return false
			}
		}
		return true
	}
	if err := checkAxioms(ground, sameSlot, 3); err == nil {
		t.Fatal("checker accepted an exchange violation")
	}
}

// Every TabularGreedy schedule is a basis of the problem's partition
// matroid: each cell Θ_{i,k} holds exactly one policy of Γ_i.
func TestSchedulersProduceIndependentSets(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 10; trial++ {
		in := randomFieldInstance(rng, 5, 15, 6, 30)
		p := mustProblem(t, in)
		for name, s := range map[string]Schedule{
			"tabular C1": TabularGreedy(p, DefaultOptions(1)).Schedule,
			"tabular C3": TabularGreedy(p, Options{Colors: 3, PreferStay: true}).Schedule,
		} {
			if len(s.Policy) != len(p.Gamma) {
				t.Fatalf("trial %d: %s has %d charger rows, want %d", trial, name, len(s.Policy), len(p.Gamma))
			}
			for i, row := range s.Policy {
				if len(row) != p.K {
					t.Fatalf("trial %d: %s charger %d has %d slots, want %d", trial, name, i, len(row), p.K)
				}
				for k, pol := range row {
					if pol < 0 || pol >= len(p.Gamma[i]) {
						t.Fatalf("trial %d: %s cell (%d,%d) = %d, outside [0,%d)",
							trial, name, i, k, pol, len(p.Gamma[i]))
					}
				}
			}
		}
	}
}
