package core

import (
	"reflect"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/stats"
)

// intervalFlows produces one interval's flows: n benign plus nAnom flood
// flows toward one victim (the same mix synthInterval feeds).
func intervalFlows(r *stats.Rand, n, nAnom int) []flow.Record {
	recs := make([]flow.Record, 0, n+nAnom)
	for i := 0; i < nAnom; i++ {
		recs = append(recs, flow.Record{
			SrcAddr: uint32(r.IntN(1 << 30)), DstAddr: 0x0a0a0a0a,
			SrcPort: uint16(1024 + r.IntN(60000)), DstPort: 7000,
			Protocol: 6, Packets: 1, Bytes: 40,
		})
	}
	for i := 0; i < n; i++ {
		recs = append(recs, flow.Record{
			SrcAddr: uint32(r.IntN(4096)), DstAddr: uint32(r.IntN(512)),
			SrcPort: uint16(r.IntN(60000)), DstPort: uint16(r.IntN(1000)),
			Protocol: 6, Packets: uint32(1 + r.IntN(20)), Bytes: uint64(100 + r.IntN(5000)),
		})
	}
	return recs
}

// TestBeginFinishMatchesEndInterval pins the two-phase close to the
// synchronous one on a single pipeline: every interval's Begin+Finish
// report must equal EndInterval's, through training, a flood alarm, and
// the intervals after it.
func TestBeginFinishMatchesEndInterval(t *testing.T) {
	sync, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	piped, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, rp := stats.NewRand(9), stats.NewRand(9)
	alarmed := false
	for i := 0; i < 12; i++ {
		nAnom := 0
		if i == 10 {
			nAnom = 1500
		}
		sync.ObserveBatch(intervalFlows(rs, 3000, nAnom))
		piped.ObserveBatch(intervalFlows(rp, 3000, nAnom))
		want, err := sync.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		pc, err := piped.BeginClose()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: two-phase report diverged\ngot:  %+v\nwant: %+v", i, got, want)
		}
		alarmed = alarmed || want.Alarm
	}
	if !alarmed {
		t.Error("no alarm; extraction path not compared")
	}
}

// TestBeginFinishMatchesEndIntervalGroup pins the sharded two-phase
// close: BeginIntervalGroup+Finish over shard pipelines fed identical
// partitions must equal EndIntervalGroup report for report.
func TestBeginFinishMatchesEndIntervalGroup(t *testing.T) {
	const shards = 3
	newGroup := func() []*Pipeline {
		group := make([]*Pipeline, shards)
		for i := range group {
			p, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			group[i] = p
		}
		return group
	}
	gSync, gPiped := newGroup(), newGroup()
	rs, rp := stats.NewRand(21), stats.NewRand(21)
	feed := func(group []*Pipeline, r *stats.Rand, nAnom int) {
		recs := intervalFlows(r, 3000, nAnom)
		for i, rec := range recs {
			group[i%shards].Observe(rec)
		}
	}
	alarmed := false
	for i := 0; i < 12; i++ {
		nAnom := 0
		if i == 10 {
			nAnom = 1500
		}
		feed(gSync, rs, nAnom)
		feed(gPiped, rp, nAnom)
		want, err := EndIntervalGroup(gSync)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := BeginIntervalGroup(gPiped)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: sharded two-phase report diverged\ngot:  %+v\nwant: %+v", i, got, want)
		}
		alarmed = alarmed || want.Alarm
	}
	if !alarmed {
		t.Error("no alarm; extraction path not compared")
	}
}

// TestBeginIntervalGroupValidation mirrors EndIntervalGroup's input
// checks.
func TestBeginIntervalGroupValidation(t *testing.T) {
	if _, err := BeginIntervalGroup(nil); err == nil {
		t.Error("empty group accepted")
	}
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BeginIntervalGroup([]*Pipeline{p, p}); err == nil {
		t.Error("duplicate pipeline accepted")
	}
	cfg := testConfig()
	cfg.Detector.Bins *= 2
	q, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BeginIntervalGroup([]*Pipeline{p, q}); err == nil {
		t.Error("group across detector configurations accepted")
	}
}

// TestSyncCloseKeepsOneIntervalState pins the synchronous close's
// memory shape: EndInterval and EndIntervalGroup close over the live
// state in place, so however many intervals close, each detector keeps
// the one clone set New built and the pipelined freelist stays empty.
// A synchronous close routed through BeginClose+Finish would double the
// resident interval state (a second clone set per detector plus a
// second flow buffer, cycling through the freelist).
func TestSyncCloseKeepsOneIntervalState(t *testing.T) {
	group := make([]*Pipeline, 2)
	for i := range group {
		p, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		group[i] = p
	}
	p := group[0]
	live := func(p *Pipeline) []*histogram.Histogram {
		var hs []*histogram.Histogram
		for _, set := range p.bank.LiveInterval() {
			hs = append(hs, set...)
		}
		return hs
	}
	want := [][]*histogram.Histogram{live(group[0]), live(group[1])}
	r := stats.NewRand(3)
	for i := 0; i < 6; i++ {
		recs := intervalFlows(r, 2000, 0)
		p.ObserveBatch(recs)
		if _, err := p.EndInterval(); err != nil {
			t.Fatal(err)
		}
		group[0].ObserveBatch(recs[:1000])
		group[1].ObserveBatch(recs[1000:])
		if _, err := EndIntervalGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range group {
		if n := len(q.spares); n != 0 {
			t.Errorf("pipeline %d: freelist holds %d interval states after synchronous closes, want 0", i, n)
		}
		for j, h := range live(q) {
			if h != want[i][j] {
				t.Fatalf("pipeline %d: clone histogram %d replaced by a synchronous close; want the one New built", i, j)
			}
		}
	}
}

// TestPendingCloseRecyclesState proves the freelist claim: from the
// second interval on, a close's drained containers are recycled ones —
// the histograms cycling through BeginClose are pointer-identical to
// sets drained earlier, so steady-state closes allocate no new
// buffer/arena memory.
func TestPendingCloseRecyclesState(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(5)
	sets := make(map[any]int)
	cycle := func() {
		p.ObserveBatch(intervalFlows(r, 500, 0))
		pc, err := p.BeginClose()
		if err != nil {
			t.Fatal(err)
		}
		sets[pc.states[0].clones[0][0]]++
		if _, err := pc.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	const cycles = 6
	for i := 0; i < cycles; i++ {
		cycle()
	}
	// Double-buffering: exactly two clone sets may exist no matter how
	// many intervals close, and each drains on alternate closes.
	if len(sets) != 2 {
		t.Fatalf("%d distinct drained clone sets after %d closes, want 2 (double-buffer recycling)", len(sets), cycles)
	}
	for h, n := range sets {
		if n != cycles/2 {
			t.Errorf("clone set %p drained %d times, want %d", h, n, cycles/2)
		}
	}
	if got := len(p.spares); got != 1 {
		t.Fatalf("freelist holds %d states after a finished close, want 1", got)
	}
}

// BenchmarkPipelinedClose compares the synchronous interval close with
// the drained two-phase one on identical 5k-flow intervals; allocs/op is
// the freelist's steady-state bar (no per-close buffer or arena growth).
func BenchmarkPipelinedClose(b *testing.B) {
	run := func(b *testing.B, close func(p *Pipeline) (*Report, error)) {
		p, err := New(testConfig())
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		r := stats.NewRand(7)
		recs := intervalFlows(r, 5000, 0)
		// Warm both halves of the double buffer: the first close allocates
		// the replacement set, the second grows its buffer columns; from
		// then on every close recycles.
		for w := 0; w < 2; w++ {
			p.ObserveBatch(recs)
			if _, err := close(p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ObserveBatch(recs)
			if _, err := close(p); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sync", func(b *testing.B) {
		run(b, func(p *Pipeline) (*Report, error) { return p.EndInterval() })
	})
	b.Run("two-phase", func(b *testing.B) {
		run(b, func(p *Pipeline) (*Report, error) {
			pc, err := p.BeginClose()
			if err != nil {
				return nil, err
			}
			return pc.Finish()
		})
	})
}
