package serve

import (
	"math/rand"
	"net/http"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/model"
	"haste/internal/workload"
)

// clusteredConfig is the serve-side many-component shape: six isolated
// clusters, small enough to schedule in microseconds but decomposed enough
// that ShardAuto (threshold 4) takes the sharded path on its own.
func clusteredConfig() workload.Config {
	c := workload.SmallScale()
	c.NumChargers = 12
	c.NumTasks = 36
	c.Placement = workload.Clustered
	c.NumClusters = 6
	c.Params.Radius = 8
	c.ClusterRadius = 6
	c.DurationMin, c.DurationMax = 3, 9
	c.ReleaseMax = 5
	return c
}

func clusteredInstance(t testing.TB, seed int64) *model.Instance {
	t.Helper()
	return clusteredConfig().Generate(rand.New(rand.NewSource(seed)))
}

// TestScheduleSharding: the shard request knob maps onto the scheduler as
// documented — true forces the sharded path, false forces monolithic,
// omitted lets ShardAuto decide (and this instance decomposes well past
// the default threshold, so auto shards). All three report the same
// utility, and the /metrics shard counters reconcile exactly with the sum
// of the shards fields of the responses.
func TestScheduleSharding(t *testing.T) {
	in := clusteredInstance(t, 1)
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	want := p.SchedulableComponents()
	if want < core.DefaultShardThreshold {
		t.Fatalf("seed drifted: %d schedulable components, need ≥ %d for the auto case",
			want, core.DefaultShardThreshold)
	}

	s := New(Config{})
	raw := instanceJSON(t, in)
	run := func(opts map[string]any) scheduleResponse {
		t.Helper()
		rec := post(s, "/v1/schedule", requestBody(t, raw, opts))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var resp scheduleResponse
		decodeResponse(t, rec.Body.Bytes(), &resp)
		return resp
	}

	sharded := run(map[string]any{"shard": true})
	if sharded.Shards != want {
		t.Fatalf("shard=true: shards = %d, want %d", sharded.Shards, want)
	}
	mono := run(map[string]any{"shard": false})
	if mono.Shards != 0 {
		t.Fatalf("shard=false: shards = %d, want 0 (monolithic)", mono.Shards)
	}
	auto := run(nil)
	if auto.Shards != want {
		t.Fatalf("shard omitted: shards = %d, want %d (auto above threshold)", auto.Shards, want)
	}

	// The stitching contract on the wire: toggling the knob never changes
	// the utility, and the two sharded runs are bit-identical.
	if sharded.RUtility != mono.RUtility || auto.RUtility != mono.RUtility {
		t.Fatalf("utilities diverge across shard modes: %v / %v / %v",
			sharded.RUtility, mono.RUtility, auto.RUtility)
	}
	if err := schedulesEqual(sharded.Schedule, auto.Schedule); err != nil {
		t.Fatalf("sharded runs not bit-identical: %v", err)
	}

	m := s.Metrics()
	if m.ShardedRuns != 2 {
		t.Fatalf("sharded_runs_total = %d, want 2 (shard=true + auto)", m.ShardedRuns)
	}
	if got := int64(sharded.Shards + mono.Shards + auto.Shards); m.ShardComps != got {
		t.Fatalf("shard_components_total = %d, does not reconcile with Σ response shards = %d",
			m.ShardComps, got)
	}
}

// TestShardedRequestTimeout: a sharded run cancelled mid-flight by the
// request budget must return every pooled state it took from the cached
// problem (component sub-Problems are derived per run and dropped with
// their pools), keep the compiled problem cached, and serve a later
// sharded request from that same cache entry bit-identically.
func TestShardedRequestTimeout(t *testing.T) {
	s := New(Config{RequestTimeout: time.Millisecond})
	cfg := clusteredConfig()
	cfg.NumChargers = 80
	cfg.NumTasks = 1920
	cfg.NumClusters = 16
	cfg.DurationMin, cfg.DurationMax = 20, 50
	cfg.ReleaseMax = 30
	in := cfg.Generate(rand.New(rand.NewSource(1)))
	raw := instanceJSON(t, in)

	// Every component is beyond paper scale (5 chargers × 120 tasks,
	// K ≈ 80); at colors 8 × 64 samples the full run takes a few hundred
	// milliseconds — two orders of magnitude past the 1ms budget, so the
	// deadline always lands mid-run even on a loaded 1-vCPU box.
	slow := requestBody(t, raw, map[string]any{"shard": true, "colors": 8})
	rec := post(s, "/v1/schedule", slow)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.Bytes())
	}
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		p := el.Value.(*cacheEntry).p
		if n := p.StatesInUse(); n != 0 {
			t.Fatalf("cancelled sharded run leaked %d pooled states", n)
		}
	}

	// The cache entry survives the cancellation: rerunning with a sane
	// budget is a hit, sharded, and deterministic.
	s.cfg.RequestTimeout = time.Minute
	var first scheduleResponse
	for i := 0; i < 2; i++ {
		rec = post(s, "/v1/schedule", slow)
		if rec.Code != http.StatusOK {
			t.Fatalf("post-timeout status %d: %s", rec.Code, rec.Body.Bytes())
		}
		var resp scheduleResponse
		decodeResponse(t, rec.Body.Bytes(), &resp)
		if resp.Cache != "hit" {
			t.Fatalf("post-timeout run %d reported cache %q", i, resp.Cache)
		}
		if resp.Shards < 2 {
			t.Fatalf("post-timeout run %d: shards = %d, want ≥ 2", i, resp.Shards)
		}
		if i == 0 {
			first = resp
		} else if err := schedulesEqual(first.Schedule, resp.Schedule); err != nil {
			t.Fatalf("sharded rerun after cancel not bit-identical: %v", err)
		}
	}
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		p := el.Value.(*cacheEntry).p
		if n := p.StatesInUse(); n != 0 {
			t.Fatalf("cached problem leaked %d pooled states after rerun", n)
		}
	}
}
