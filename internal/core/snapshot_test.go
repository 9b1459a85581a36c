package core

import (
	"reflect"
	"testing"

	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
)

// snapRecords synthesizes one interval's records with a stable popular
// structure and an optional dstPort flood.
func snapRecords(interval, n int, flood bool) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(i%89) + 1,
			DstAddr: uint32(i%71) + 1,
			SrcPort: uint16(i % 47),
			DstPort: uint16(i % 29),
			Packets: uint32(i%5) + 1,
			Bytes:   uint64(i%11)*40 + 40,
			Start:   int64(interval) * 1000,
		}
		if flood && i%2 == 0 {
			recs[i].DstAddr, recs[i].DstPort = 42, 31337
			recs[i].Packets, recs[i].Bytes = 1, 40
		}
	}
	return recs
}

func snapConfig() Config {
	return Config{Detector: detector.Config{Bins: 64, TrainIntervals: 3, Seed: 9}}
}

// TestPipelineSnapshotRestore: a restored pipeline carries the full
// detection history and the open interval's flow buffer, so subsequent
// reports — including an alarming interval's extraction — match the
// original exactly.
func TestPipelineSnapshotRestore(t *testing.T) {
	orig, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 6; i++ {
		if _, err := orig.ProcessInterval(snapRecords(i, 900, false)); err != nil {
			t.Fatal(err)
		}
	}
	orig.ObserveBatch(snapRecords(6, 400, false))

	s := orig.Snapshot()
	if s.Buffer.Len() != 400 {
		t.Fatalf("snapshot buffer has %d records, want 400", s.Buffer.Len())
	}
	restored, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), s) {
		t.Fatal("restored pipeline re-snapshots differently")
	}
	alarmed := false
	for i := 6; i < 10; i++ {
		rest := snapRecords(i, 900, i == 7)
		if i == 6 {
			rest = rest[400:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want, err := orig.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		alarmed = alarmed || want.Alarm
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d diverged after restore:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if !alarmed {
		t.Fatal("post-restore intervals never alarmed; extraction not compared")
	}
}

// TestDrainOpenIntervalGroup: draining a group of pipelines that
// partition one stream yields a single open interval — sibling clones
// merged into the primary's, buffers concatenated — whose additive
// absorb reproduces a direct run, interval after interval, with every
// member left empty.
func TestDrainOpenIntervalGroup(t *testing.T) {
	mk := func() *Pipeline {
		p, err := New(snapConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	direct, primary := mk(), mk()
	group := []*Pipeline{mk(), mk(), mk()}

	for i := 0; i < 7; i++ {
		recs := snapRecords(i, 900, i == 5)
		direct.ObserveBatch(recs)
		for j, rec := range recs {
			group[j%len(group)].Observe(rec)
		}

		oi, err := DrainOpenIntervalGroup(group)
		if err != nil {
			t.Fatal(err)
		}
		if oi.Buffer.Len() != len(recs) {
			t.Fatalf("interval %d: drained %d records, want %d", i, oi.Buffer.Len(), len(recs))
		}
		// Every member is empty: an immediate re-drain carries nothing.
		rd, err := DrainOpenIntervalGroup(group)
		if err != nil {
			t.Fatal(err)
		}
		if rd.Buffer.Len() != 0 {
			t.Fatalf("interval %d: re-drain still holds %d records", i, rd.Buffer.Len())
		}
		for _, clones := range rd.Clones {
			for _, hs := range clones {
				if hs.Total != 0 {
					t.Fatalf("interval %d: re-drain still holds %d observations", i, hs.Total)
				}
			}
		}
		if err := primary.AbsorbOpenInterval(oi); err != nil {
			t.Fatal(err)
		}
		want, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: absorb-of-group-drain diverged from direct run:\n got %+v\nwant %+v",
				i, got, want)
		}
	}
	if _, err := DrainOpenIntervalGroup([]*Pipeline{group[0], group[0]}); err == nil {
		t.Error("duplicate pipeline in drain group accepted")
	}
}

// TestPipelineDrainOpenInterval: the lean agent-path drain carries the
// open interval — clone snapshots plus buffer, no detection history —
// and absorbing it additively reproduces a direct run exactly, interval
// after interval (the drained pipeline starts each one empty).
func TestPipelineDrainOpenInterval(t *testing.T) {
	direct, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	agent, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	primary, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	for i := 0; i < 7; i++ {
		recs := snapRecords(i, 900, i == 5)
		direct.ObserveBatch(recs)
		agent.ObserveBatch(recs)

		oi := agent.DrainOpenInterval()
		if oi.Buffer.Len() != len(recs) {
			t.Fatalf("interval %d: drained %d records, want %d", i, oi.Buffer.Len(), len(recs))
		}
		if rd := agent.DrainOpenInterval(); rd.Buffer.Len() != 0 {
			t.Fatalf("interval %d: re-drain still holds %d records", i, rd.Buffer.Len())
		}
		if len(oi.Clones) == 0 {
			t.Fatalf("interval %d: drained no detector clones", i)
		}
		for _, clones := range oi.Clones {
			for _, hs := range clones {
				if hs.Total == 0 {
					t.Fatalf("interval %d: drained open interval has empty clone", i)
				}
			}
		}
		if err := primary.AbsorbOpenInterval(oi); err != nil {
			t.Fatal(err)
		}
		want, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		got, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interval %d: absorb-of-open-interval diverged from direct run:\n got %+v\nwant %+v",
				i, got, want)
		}
	}
}

// TestAbsorbOpenIntervalRejectsShape: absorbing an open interval drained
// from a differently configured pipeline errors instead of corrupting
// the bank.
func TestAbsorbOpenIntervalRejectsShape(t *testing.T) {
	cfg := snapConfig()
	cfg.Features = []flow.FeatureKind{flow.SrcIP, flow.DstIP}
	narrow, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer narrow.Close()
	narrow.ObserveBatch(snapRecords(0, 100, false))

	p, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.AbsorbOpenInterval(narrow.DrainOpenInterval()); err == nil {
		t.Error("absorb across feature sets accepted")
	}
}

// TestPipelineRestoreRejectsShape: restoring across configurations
// errors instead of corrupting state.
func TestPipelineRestoreRejectsShape(t *testing.T) {
	p, err := New(snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(snapRecords(0, 100, false))
	s := p.Snapshot()

	cfg := snapConfig()
	cfg.Features = []flow.FeatureKind{flow.SrcIP, flow.DstIP}
	other, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.RestoreSnapshot(s); err == nil {
		t.Error("restore across feature sets accepted")
	}
}
