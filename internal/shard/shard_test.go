package shard

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
)

// testTrace generates a seeded tracegen trace (with the proportionally
// compressed ground-truth schedule) plus an injected dstPort flood in
// interval floodAt, so the extraction stage is exercised even at
// test-friendly volumes.
func testTrace(intervals, baseFlows, floodAt int) [][]flow.Record {
	cfg := tracegen.SmallConfig()
	cfg.Intervals = intervals
	cfg.BaseFlows = baseFlows
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	gen := tracegen.New(cfg)
	out := make([][]flow.Record, intervals)
	for i := range out {
		recs := gen.Interval(i)
		if i == floodAt {
			for j := range recs {
				if j%3 == 0 {
					recs[j].DstAddr, recs[j].DstPort = 42, 31337
					recs[j].Packets, recs[j].Bytes = 1, 40
				}
			}
		}
		out[i] = recs
	}
	return out
}

func testPipelineConfig() core.Config {
	return core.Config{
		Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3},
	}
}

// renderReport serializes every deterministic report field — detection
// state, voted meta-data, counts, item-sets, cost reduction — so two
// reports can be compared for byte identity. The KeepSuspicious forensic
// slice is the one field deliberately excluded: sharding regroups it by
// shard.
func renderReport(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval=%d alarm=%v total=%d suspicious=%d minsup=%d R=%v\n",
		rep.Interval, rep.Alarm, rep.TotalFlows, rep.SuspiciousFlows,
		rep.MinSupport, rep.CostReduction)
	fmt.Fprintf(&b, "detection=%+v\n", rep.Detection)
	if rep.Mining != nil {
		fmt.Fprintf(&b, "mining=%+v\n", *rep.Mining)
	}
	for i := range rep.ItemSets {
		fmt.Fprintf(&b, "set %s sup=%d\n", rep.ItemSets[i].String(), rep.ItemSets[i].Support)
	}
	return b.String()
}

// TestShardedDeterminism pins the tentpole contract over the full
// (Workers, shards) grid: for shards ∈ {1, 2, 4} and per-shard Workers
// ∈ {1, 2, 4, 8}, a ShardedPipeline — with its distributed per-shard
// prefilter and shard-order suspicious-set merge — produces reports
// byte-identical to a plain sequential core.Pipeline, interval for
// interval.
func TestShardedDeterminism(t *testing.T) {
	trace := testTrace(10, 3000, 8)

	ref, err := core.New(testPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]string, len(trace))
	alarmed := false
	for i, recs := range trace {
		rep, err := ref.ProcessInterval(recs)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderReport(rep)
		alarmed = alarmed || rep.Alarm
	}
	if !alarmed {
		t.Fatal("reference run never alarmed; determinism test would not cover extraction")
	}

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := testPipelineConfig()
			cfg.Workers = workers
			sp, err := New(Config{Shards: shards, Pipeline: cfg})
			if err != nil {
				t.Fatal(err)
			}
			for i, recs := range trace {
				// Feed in alternating small and large chunks so both the
				// sequential small-batch route and the partition + fan-out
				// route contribute to the same interval.
				for j, small := 0, true; j < len(recs); small = !small {
					n := 700
					if small {
						n = 45
					}
					end := min(j+n, len(recs))
					sp.ObserveBatch(recs[j:end])
					j = end
				}
				rep, err := sp.EndInterval()
				if err != nil {
					t.Fatal(err)
				}
				if got := renderReport(rep); got != want[i] {
					t.Fatalf("shards=%d workers=%d interval %d: report diverged from plain pipeline\ngot:  %s\nwant: %s",
						shards, workers, i, got, want[i])
				}
			}
			sp.Close()
		}
	}
}

// TestShardOfStableAndSpread verifies the partitioner: equal flow keys
// always land in the same shard, and a realistic trace actually spreads
// across all shards (no degenerate hashing).
func TestShardOfStableAndSpread(t *testing.T) {
	sp, err := New(Config{Shards: 4, Pipeline: testPipelineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	trace := testTrace(1, 4000, -1)
	counts := make([]int, sp.NumShards())
	for i := range trace[0] {
		rec := trace[0][i]
		sh := sp.ShardOf(&rec)
		counts[sh]++
		clone := rec
		clone.Packets, clone.Bytes, clone.Start = 999, 999, 999 // non-key fields
		if got := sp.ShardOf(&clone); got != sh {
			t.Fatalf("shard assignment depends on non-key fields: %d vs %d", got, sh)
		}
	}
	for sh, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no flows of %d: degenerate partitioning %v",
				sh, len(trace[0]), counts)
		}
	}
}

// TestShardedConcurrentProducers exercises the race-freedom of parallel
// ingestion: several goroutines ObserveBatch disjoint slices of an
// interval concurrently, and the lockstep close must still match the
// sequential reference (detection and extraction are ingestion-order
// insensitive). Run with -race.
func TestShardedConcurrentProducers(t *testing.T) {
	trace := testTrace(8, 2000, 6)

	ref, err := core.New(testPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	sp, err := New(Config{Shards: 4, Pipeline: testPipelineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	for i, recs := range trace {
		wantRep, err := ref.ProcessInterval(recs)
		if err != nil {
			t.Fatal(err)
		}

		const producers = 4
		var wg sync.WaitGroup
		chunk := (len(recs) + producers - 1) / producers
		for p := 0; p < producers; p++ {
			lo := p * chunk
			hi := min(lo+chunk, len(recs))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []flow.Record) {
				defer wg.Done()
				sp.ObserveBatch(part)
			}(recs[lo:hi])
		}
		wg.Wait()
		gotRep, err := sp.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReport(gotRep), renderReport(wantRep); got != want {
			t.Fatalf("interval %d: concurrent sharded report diverged\ngot:  %s\nwant: %s", i, got, want)
		}
	}
}

// TestShardedRejectsNegative covers config validation and the absorb
// mismatch path.
func TestShardedRejectsNegative(t *testing.T) {
	if _, err := New(Config{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
	if _, err := New(Config{Shards: 2, Pipeline: core.Config{MinSupport: -5}}); err == nil {
		t.Fatal("invalid pipeline config accepted")
	}
}

// BenchmarkShardedPipeline sweeps the shard count over one interval's
// ingestion plus the lockstep close. On multi-core hardware throughput
// scales with shards until the cores are saturated; -cpu sweeps contrast
// the fan-out with the single-threaded baseline.
func BenchmarkShardedPipeline(b *testing.B) {
	trace := testTrace(1, 20000, -1)
	recs := trace[0]
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sp, err := New(Config{Shards: shards, Pipeline: testPipelineConfig()})
			if err != nil {
				b.Fatal(err)
			}
			defer sp.Close()
			b.SetBytes(int64(len(recs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.ProcessInterval(recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestShardedDrainOpenInterval: draining a sharded pipeline merges
// every shard's open interval into one — absorbing it elsewhere
// reproduces a plain pipeline's report over the same records — and
// leaves all shards empty for the next interval.
func TestShardedDrainOpenInterval(t *testing.T) {
	trace := testTrace(6, 2000, 4)
	cfg := testPipelineConfig()

	direct, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	sharded, err := New(Config{Shards: 3, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	primary, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	for i, recs := range trace {
		direct.ObserveBatch(recs)
		sharded.ObserveBatch(recs)

		oi, err := sharded.DrainOpenInterval()
		if err != nil {
			t.Fatal(err)
		}
		if oi.Buffer.Len() != len(recs) {
			t.Fatalf("interval %d: drained %d records, want %d", i, oi.Buffer.Len(), len(recs))
		}
		if redrain, err := sharded.DrainOpenInterval(); err != nil || redrain.Buffer.Len() != 0 {
			t.Fatalf("interval %d: re-drain returned %d records, err %v", i, redrain.Buffer.Len(), err)
		}
		if err := primary.AbsorbOpenInterval(oi); err != nil {
			t.Fatal(err)
		}
		wantRep, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReport(gotRep), renderReport(wantRep); got != want {
			t.Fatalf("interval %d: drained shard report diverged:\n got %s\nwant %s", i, got, want)
		}
	}
}
