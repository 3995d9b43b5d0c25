package difftest

import (
	"testing"

	"haste/internal/core"
)

// onlineFleetDigests pins the result of every OnlineFleetSweep cell
// (OnlineDigest), recorded before the online agents were moved onto the
// compiled sparse rows; any change to them is a behaviour change.
var onlineFleetDigests = map[string]string{
	"seed1-c1":          "cd80959ff20bf908c57c94401663c43741762721e9b230c979deec89cfdeb765",
	"seed1-c3":          "4914b5c267b60914d61816ea85d05ee4f4207730dc19628ae0adccc1051f3cd2",
	"seed1-c1-drop":     "829ca5e689a96fa61a403e7664b07f50b84c1803f63e07ec440d080eb5d5083c",
	"seed1-c1-drop+rel": "62f42df1a3b72c3aefa9b5bbb8c477c6a0f7d86a45df0d6083563120308e6786",
	"seed2-c1":          "8a2fb49bd9f57fb47a56369f975b1c1eac65c37f46fa10e0277cd332d1e45f94",
	"seed2-c3":          "aa93b8fb7f515f32da7396ed061b9df5a413c4dbfc6c0c91c4ca0b31fba772fa",
	"seed2-c1-drop":     "77e08543653014db0669b868317b7cdbccc1f6f62d9b6a2d433ca9dba096cfa4",
	"seed2-c1-drop+rel": "bdf8e7700c4469e283a0000498cce433fb460846964f836da9985bd765b35371",
}

// TestOnlineFleetSweep holds the distributed online run on the 2000-task
// fleet to its pinned digests: orientation timelines, Outcome and Stats
// bit-identical, failure-free and under message loss with the
// reliability layer off and on.
func TestOnlineFleetSweep(t *testing.T) {
	problems := map[int64]*core.Problem{}
	for _, c := range OnlineFleetSweep() {
		p, ok := problems[c.Seed]
		if !ok {
			var err error
			if p, err = OnlineFleetProblem(c.Seed); err != nil {
				t.Fatal(err)
			}
			problems[c.Seed] = p
		}
		t.Run(c.Name, func(t *testing.T) {
			got, err := RunOnlineFleetCell(p, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := onlineFleetDigests[c.Name]; got != want {
				t.Errorf("digest %s, pinned %s", got, want)
			}
		})
	}
}
