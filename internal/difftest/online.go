package difftest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"haste/internal/core"
	"haste/internal/online"
	"haste/internal/workload"
)

// This file is the fleet-scale online pin: the distributed online run
// (Algorithm 3) on a 2000-task clustered fleet, at a scale where every
// agent's known-task set is large and its coverage row is small, so a
// change to how agents derive their local state (dominant sets, energy
// views, neighbours) is exercised far past the fig16 and chaos
// instances. Each cell's whole result is folded into one SHA-256 digest
// that the test pins: the schedules, utilities, message and round counts
// must stay bit-identical across any refactor of the online path.

// OnlineFleetCell is one seeded cell of the fleet-scale online pin.
type OnlineFleetCell struct {
	Name string
	Seed int64
	// Opt carries Colors and the failure knobs; the harness fills Seed.
	Opt online.Options
}

// OnlineFleetSweep returns the fleet-scale online pin: seeds 1 and 2,
// each failure-free at C=1 and C=3, and with 10% message loss at C=1
// with the reliability layer off and on.
func OnlineFleetSweep() []OnlineFleetCell {
	cells := []struct {
		name string
		opt  online.Options
	}{
		{"c1", online.Options{Colors: 1}},
		{"c3", online.Options{Colors: 3}},
		{"c1-drop", online.Options{Colors: 1, DropRate: 0.1}},
		{"c1-drop+rel", online.Options{Colors: 1, DropRate: 0.1, Reliable: true}},
	}
	var out []OnlineFleetCell
	for _, seed := range []int64{1, 2} {
		for _, c := range cells {
			out = append(out, OnlineFleetCell{Name: fmt.Sprintf("seed%d-%s", seed, c.name), Seed: seed, Opt: c.opt})
		}
	}
	return out
}

// OnlineFleetProblem compiles the seeded FleetScale(2000) instance of the
// pin (250 chargers).
func OnlineFleetProblem(seed int64) (*core.Problem, error) {
	in := workload.FleetScale(2000).Generate(rand.New(rand.NewSource(seed)))
	p, err := core.NewProblem(in)
	if err != nil {
		return nil, fmt.Errorf("difftest: fleet problem seed %d: %w", seed, err)
	}
	return p, nil
}

// RunOnlineFleetCell runs online.Run on the cell's fleet and returns the
// digest of its result. A cell whose enabled failure mode never fired is
// an error, as in the cross-driver sweep.
func RunOnlineFleetCell(p *core.Problem, c OnlineFleetCell) (string, error) {
	opt := c.Opt
	opt.Seed = c.Seed
	res, err := online.Run(p, opt)
	if err != nil {
		return "", fmt.Errorf("cell %s: %w", c.Name, err)
	}
	if err := checkVacuity(opt, res.Stats.Net); err != nil {
		return "", fmt.Errorf("cell %s: %w", c.Name, err)
	}
	return OnlineDigest(res), nil
}

// OnlineDigest is the hex SHA-256 of an online result: the bits of every
// orientation command (NaN included), then the Outcome and the full Stats
// in Go's %v form, which prints every float with a round-tripping
// representation.
func OnlineDigest(res online.Result) string {
	h := sha256.New()
	var buf [8]byte
	for _, row := range res.Orientations {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	fmt.Fprintf(h, "%v|%+v", res.Outcome, res.Stats)
	return hex.EncodeToString(h.Sum(nil))
}
