package wire_test

import (
	"context"
	"net"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// benchSnapshot builds a paper-default pipeline (5 features x 3 clones
// x 1024 bins, value tracking on) holding one partially accumulated
// interval of nFlows records — the state an agent drains and ships
// every interval.
func benchSnapshot(b *testing.B, nFlows int) core.PipelineSnapshot {
	b.Helper()
	p, err := core.New(core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	trace := testTrace(1, nFlows, 0)[0]
	p.ObserveBatch(trace)
	return p.Snapshot()
}

// BenchmarkWireSnapshot measures the codec on a drained interval of
// 20k flows: encode, decode, and the bytes produced (reported as
// B/op via SetBytes, so ns/op divided by MB/s is directly comparable).
func BenchmarkWireSnapshot(b *testing.B) {
	snap := benchSnapshot(b, 20000)
	enc := wire.EncodePipelineSnapshot(snap)
	b.Logf("snapshot size: %d bytes (%d buffered flows)", len(enc), snap.Buffer.Len())

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire.EncodePipelineSnapshot(snap)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(enc)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodePipelineSnapshot(enc); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The lean open-interval form — what an agent actually ships each
	// boundary (the bench pipeline never closed an interval, so its
	// snapshot qualifies). Logged sizes give the full-vs-lean delta.
	lean, err := wire.EncodeOpenIntervalSnapshot(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("open-interval size: %d bytes (full: %d, %.1f%% saved)",
		len(lean), len(enc), 100*float64(len(enc)-len(lean))/float64(len(enc)))
	b.Run("encode-open", func(b *testing.B) {
		b.SetBytes(int64(len(lean)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.EncodeOpenIntervalSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-open", func(b *testing.B) {
		b.SetBytes(int64(len(lean)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.DecodeOpenIntervalSnapshot(lean); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoopbackInterval measures the distributed interval close end
// to end over loopback TCP: two agents each drain and ship a ~2k-flow
// interval, the collector merges both snapshots in agent-ID order and
// closes detection. One benchmark iteration is one complete interval
// (submit, cut, ship, merge, detect), so ns/op is the added per-interval
// latency of running the shards on separate processes' sockets.
func BenchmarkLoopbackInterval(b *testing.B) {
	const agents = 2
	cfg := core.Config{} // paper defaults
	trace := testTrace(1, 4000, -1)[0]
	parts := make([][]flow.Record, agents)
	for i := range trace {
		parts[i%agents] = append(parts[i%agents], trace[i])
	}
	step := (15 * time.Minute).Milliseconds()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: agents})
	if err != nil {
		b.Fatal(err)
	}
	defer coll.Close()
	reports := make(chan *core.Report, 16)
	serveErr := make(chan error, 1)
	go func() {
		defer close(reports)
		serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			reports <- rep
			return nil
		})
	}()

	engines := make([]*engine.Engine, agents)
	agentConns := make([]*wire.Agent, agents)
	for id := 0; id < agents; id++ {
		a, err := wire.DialAgent(ln.Addr().String(), id, cfg, wire.AgentOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sp, err := shard.New(shard.Config{Shards: 1, Pipeline: cfg})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.NewWithSink(engine.Config{IntervalLen: 15 * time.Minute}, wire.NewAgentSink(a, sp))
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for range eng.Reports() {
			}
		}()
		engines[id] = eng
		agentConns[id] = a
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Shift every record into benchmark-interval i, so each iteration
		// fills exactly one grid interval; the next iteration's first
		// record cuts the previous one closed at both agents.
		for id, part := range parts {
			shifted := make([]flow.Record, len(part))
			for j, rec := range part {
				rec.Start = rec.Start%step + int64(i+1)*step
				rec.End = rec.Start
				shifted[j] = rec
			}
			if _, err := engines[id].SubmitBatch(shifted); err != nil {
				b.Fatal(err)
			}
		}
		if i > 0 {
			<-reports // the interval the cut just closed
		}
	}
	b.StopTimer()
	for id := range engines {
		if err := engines[id].Close(); err != nil {
			b.Fatal(err)
		}
		if err := agentConns[id].Close(); err != nil {
			b.Fatal(err)
		}
	}
	for range reports {
	}
	if err := <-serveErr; err != nil {
		b.Fatal(err)
	}
}
