package wire_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// TestDistributedPipelinedAgents pins the pipelined close across the
// wire: agent engines run with PipelineDepth > 1 — which falls back to
// the synchronous close because AgentSink drains-and-ships inline — and
// the collector's merged reports must be byte-identical to a local
// pipelined engine (same shard count, same depth) consuming the whole
// trace in one process. This ties all three closing modes together:
// local sync, local pipelined, and distributed.
func TestDistributedPipelinedAgents(t *testing.T) {
	const agents = 2
	trace := testTrace(10, 3000, 8)
	cfg := testPipelineConfig()

	// Reference: a local pipelined engine sharded the same way the
	// agents partition the trace.
	ref, err := engine.New(engine.Config{
		Pipeline: cfg, Shards: agents, IntervalLen: 15 * time.Minute, PipelineDepth: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	alarmed := false
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		for rep := range ref.Reports() {
			want = append(want, renderReport(rep))
			alarmed = alarmed || rep.Alarm
		}
	}()
	for _, recs := range trace {
		if _, err := ref.SubmitBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	<-refDone
	if !alarmed {
		t.Fatal("pipelined reference run never alarmed; the test would not cover extraction")
	}

	// Partition the trace exactly as the sharded reference does.
	sp, err := shard.New(shard.Config{Shards: agents, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][][]flow.Record, agents)
	for id := range parts {
		parts[id] = make([][]flow.Record, len(trace))
	}
	for i, recs := range trace {
		for j := range recs {
			id := sp.ShardOf(&recs[j])
			parts[id][i] = append(parts[id][i], recs[j])
		}
	}
	sp.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: agents})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	var got []string
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- coll.Serve(context.Background(), ln, func(rep *core.Report) error {
			got = append(got, renderReport(rep))
			return nil
		})
	}()

	var wg sync.WaitGroup
	for id := 0; id < agents; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runPipelinedAgent(t, ln.Addr().String(), id, cfg, parts[id])
		}(id)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	ln.Close()

	if len(got) != len(want) {
		t.Fatalf("collector closed %d intervals, pipelined local run closed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interval %d: collector report differs from local pipelined run:\n got %s\nwant %s",
				i, got[i], want[i])
		}
	}
}

// runPipelinedAgent is runAgent with PipelineDepth set on the agent
// engine: the AgentSink cannot split its close, so the engine must fall
// back to the synchronous path and ship identical snapshots.
func runPipelinedAgent(t *testing.T, addr string, id int, cfg core.Config, part [][]flow.Record) {
	t.Helper()
	agent, err := wire.DialAgent(addr, id, cfg, wire.AgentOptions{})
	if err != nil {
		t.Errorf("agent %d: dial: %v", id, err)
		return
	}
	sp, err := shard.New(shard.Config{Shards: 1, Pipeline: cfg})
	if err != nil {
		t.Errorf("agent %d: %v", id, err)
		agent.Close()
		return
	}
	eng, err := engine.NewWithSink(
		engine.Config{IntervalLen: 15 * time.Minute, PipelineDepth: 3},
		wire.NewAgentSink(agent, sp),
	)
	if err != nil {
		t.Errorf("agent %d: %v", id, err)
		agent.Close()
		return
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range eng.Reports() {
		}
	}()
	for _, recs := range part {
		if _, err := eng.SubmitBatch(recs); err != nil {
			t.Errorf("agent %d: submit: %v", id, err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Errorf("agent %d: engine close: %v", id, err)
	}
	<-drained
	if err := agent.Close(); err != nil {
		t.Errorf("agent %d: close: %v", id, err)
	}
}
