package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"haste/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden figure snapshots")

// goldenOptions is the pinned configuration of the snapshots: quick
// workloads, two topologies per point, a fixed seed. Figures are fully
// deterministic under it, for every worker count — which is the point:
// performance refactors of the schedulers must not shift a single digit.
var goldenOptions = Options{Reps: 2, Seed: 7, Quick: true}

// TestGoldenFigures diffs the seeded fig4, fig6 and fig16 series against
// the snapshots under testdata/golden. Regenerate intentionally changed
// series with:
//
//	go test ./internal/experiments -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	for _, id := range []string{"fig4", "fig6", "fig16"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.Run(goldenOptions)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tbl.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", id+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing snapshot (run with -update to create it): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from its golden snapshot.\n--- got ---\n%s--- want ---\n%s"+
					"If the change is intentional, regenerate with -update.",
					id, buf.String(), string(want))
			}
		})
	}
}

// TestGoldenFiguresWorkerInvariant re-renders one snapshot figure with
// every solve sharded at Workers = 1 and Workers = 8 (the worker count
// only acts on sharded runs): concurrent component scheduling must not
// move the figures at all, not even in the last printed digit.
func TestGoldenFiguresWorkerInvariant(t *testing.T) {
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		o := goldenOptions
		o.Workers = workers
		o.Shard = core.ShardOn
		tbl, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tbl.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if seq, par := render(1), render(8); seq != par {
		t.Errorf("fig4 differs between Workers=1 and Workers=8:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
}
