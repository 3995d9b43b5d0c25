package online

import (
	"math/rand"
	"reflect"
	"testing"

	"haste/internal/core"
	"haste/internal/dominant"
	"haste/internal/geom"
	"haste/internal/model"
	"haste/internal/workload"
)

// Row-fed extraction ≡ scan-fed extraction: for random known subsets, the
// dominant sets an agent extracts from the known entries of its compiled
// row must deep-equal those of ExtractSubset over every known task. The
// anisotropic instance's 300° receive sector puts chargers behind devices,
// where the receive gain clamps to zero: those rows carry De == 0 entries,
// which are chargeable and must stay candidates.
func TestRowFedExtractionMatchesScan(t *testing.T) {
	aniso := workload.Default()
	aniso.Params.AnisotropicGain = true
	aniso.Params.ReceiveAngle = geom.Deg(300)
	instances := []struct {
		name     string
		in       *model.Instance
		zeroGain bool
	}{
		{"paper-default", workload.Default().Generate(rand.New(rand.NewSource(41))), false},
		{"clustered-fleet", workload.FleetScale(400).Generate(rand.New(rand.NewSource(42))), false},
		{"anisotropic", aniso.Generate(rand.New(rand.NewSource(43))), true},
	}
	for _, tc := range instances {
		t.Run(tc.name, func(t *testing.T) {
			p, err := core.NewProblem(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if tc.zeroGain && !hasZeroGainEntry(p) {
				t.Fatal("anisotropic instance has no De == 0 row entry; the case is vacuous")
			}
			rng := rand.New(rand.NewSource(7))
			for _, frac := range []float64{0.1, 0.5, 1} {
				isKnown := make([]bool, len(tc.in.Tasks))
				var knownIDs []int
				for j := range isKnown {
					if rng.Float64() < frac {
						isKnown[j] = true
						knownIDs = append(knownIDs, j)
					}
				}
				for i := range tc.in.Chargers {
					got := dominant.ExtractSubset(tc.in, i, knownRowTasks(p.ChargerRow(i), isKnown))
					want := dominant.ExtractSubset(tc.in, i, knownIDs)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("known fraction %v, charger %d: row-fed Γ %v != scan-fed Γ %v", frac, i, got, want)
					}
				}
			}
		})
	}
}

func hasZeroGainEntry(p *core.Problem) bool {
	for i := range p.In.Chargers {
		for _, ent := range p.ChargerRow(i) {
			if ent.De == 0 {
				return true
			}
		}
	}
	return false
}
