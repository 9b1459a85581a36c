package detector

import (
	"fmt"
	"reflect"
	"testing"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// snapTestRecords deterministically synthesizes one interval's records:
// a stable popular set plus an optional dstPort flood.
func snapTestRecords(interval, n int, flood bool) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			SrcAddr: uint32(i%97) + 1,
			DstAddr: uint32(i%61) + 1,
			SrcPort: uint16(i % 53),
			DstPort: uint16(i % 23),
			Packets: uint32(i%7) + 1,
			Start:   int64(interval) * 1000,
		}
		if flood && i%2 == 0 {
			recs[i].DstAddr, recs[i].DstPort = 42, 31337
			recs[i].Packets = 1
		}
	}
	return recs
}

func snapTestBankConfig() BankConfig {
	return BankConfig{
		Template: Config{Bins: 64, TrainIntervals: 3, Seed: 5},
		Workers:  1,
	}
}

// TestDetectorSnapshotRoundTrip: restoring a mid-stream snapshot into a
// fresh same-config detector reproduces its subsequent results exactly,
// including thresholds and alarms (the full history — prev counts, KL
// series, diff samples — must survive the trip).
func TestDetectorSnapshotRoundTrip(t *testing.T) {
	cfg := Config{Feature: flow.DstPort, Bins: 64, TrainIntervals: 3, Seed: 5}
	orig, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		orig.ObserveBatch(snapTestRecords(i, 800, false))
		orig.EndInterval()
	}
	orig.ObserveBatch(snapTestRecords(6, 300, false)) // partial open interval

	s := orig.Snapshot()
	restored, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), s) {
		t.Fatal("restored detector re-snapshots differently")
	}
	for i := 6; i < 10; i++ {
		rest := snapTestRecords(i, 800, i == 7)
		if i == 6 {
			rest = rest[300:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want := fmt.Sprintf("%+v", orig.EndInterval())
		got := fmt.Sprintf("%+v", restored.EndInterval())
		if got != want {
			t.Fatalf("interval %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestDetectorSnapshotRejectsShape: clone/bin mismatches error.
func TestDetectorSnapshotRejectsShape(t *testing.T) {
	d, err := New(Config{Feature: flow.DstPort, Bins: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d.ObserveBatch(snapTestRecords(0, 100, false))
	s := d.Snapshot()

	other, err := New(Config{Feature: flow.DstPort, Bins: 64, Clones: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreSnapshot(s); err == nil {
		t.Error("restore across clone counts accepted")
	}
	narrow, err := New(Config{Feature: flow.DstPort, Bins: 32, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := narrow.RestoreSnapshot(s); err == nil {
		t.Error("restore across bin counts accepted")
	}
	bad := s
	bad.Prev = [][]uint64{{1, 2}, {3}, {4}}
	if err := d.RestoreSnapshot(bad); err == nil {
		t.Error("restore with malformed reference counts accepted")
	}
}

// TestDrainIntervalKeepsHistory: DrainInterval moves out only the open
// interval — the detection history (and therefore subsequent
// thresholds) is untouched, while the drained observations are gone.
func TestDrainIntervalKeepsHistory(t *testing.T) {
	cfg := Config{Feature: flow.DstPort, Bins: 64, TrainIntervals: 3, Seed: 5}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		recs := snapTestRecords(i, 600, false)
		a.ObserveBatch(recs)
		b.ObserveBatch(recs)
		a.EndInterval()
		b.EndInterval()
	}
	// b additionally accumulates an interval that DrainInterval must
	// move out whole.
	b.ObserveBatch(snapTestRecords(99, 400, true))
	for c, hs := range b.DrainInterval() {
		if hs.Total != 400 {
			t.Fatalf("clone %d drained %d observations, want 400", c, hs.Total)
		}
	}
	recs := snapTestRecords(5, 600, false)
	a.ObserveBatch(recs)
	b.ObserveBatch(recs)
	want := fmt.Sprintf("%+v", a.EndInterval())
	got := fmt.Sprintf("%+v", b.EndInterval())
	if got != want {
		t.Fatalf("DrainInterval leaked state:\n got %s\nwant %s", got, want)
	}
}

// TestBankSnapshotRoundTrip: the bank-level wrappers snapshot and
// restore every detector in feature order; shape mismatches error.
func TestBankSnapshotRoundTrip(t *testing.T) {
	orig, err := NewBank(snapTestBankConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 5; i++ {
		orig.ObserveBatch(snapTestRecords(i, 700, false))
		orig.EndInterval()
	}
	orig.ObserveBatch(snapTestRecords(5, 250, false))

	s := orig.Snapshot()
	if len(s.Detectors) != len(orig.Detectors()) {
		t.Fatalf("snapshot has %d detectors, bank %d", len(s.Detectors), len(orig.Detectors()))
	}
	restored, err := NewBank(snapTestBankConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreSnapshot(s); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 9; i++ {
		rest := snapTestRecords(i, 700, i == 6)
		if i == 5 {
			rest = rest[250:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want := fmt.Sprintf("%+v", orig.EndInterval())
		got := fmt.Sprintf("%+v", restored.EndInterval())
		if got != want {
			t.Fatalf("interval %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	small, err := NewBank(BankConfig{
		Features: []flow.FeatureKind{flow.SrcIP},
		Template: snapTestBankConfig().Template,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if err := small.RestoreSnapshot(s); err == nil {
		t.Error("restore across feature counts accepted")
	}

	// Bank-level DrainInterval empties the open interval of every
	// detector (history stays — see TestDrainIntervalKeepsHistory): the
	// re-snapshot shows empty clone histograms.
	restored.ObserveBatch(snapTestRecords(50, 300, true))
	restored.DrainInterval()
	for di, ds := range restored.Snapshot().Detectors {
		for ci, hs := range ds.Clones {
			if hs.Total != 0 {
				t.Fatalf("detector %d clone %d still holds %d observations after DrainInterval",
					di, ci, hs.Total)
			}
		}
	}
}

// TestBankMergeDrainedIsUnion pins the mergeable-sketch property the
// shard merge relies on: merging a sibling bank's clone sets into a
// bank's live sets leaves exactly the state of one bank that observed
// both partitions, interval after interval, through an alarm.
func TestBankMergeDrainedIsUnion(t *testing.T) {
	mk := func() *Bank {
		b, err := NewBank(snapTestBankConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		return b
	}
	whole, primary, sibling := mk(), mk(), mk()
	alarmed := false
	for i := 0; i < 8; i++ {
		recs := snapTestRecords(i, 700, i == 6)
		whole.ObserveBatch(recs)
		primary.ObserveBatch(recs[:len(recs)/3])
		sibling.ObserveBatch(recs[len(recs)/3:])
		sib := sibling.LiveInterval()
		primary.MergeDrained(primary.LiveInterval(), [][][]*histogram.Histogram{sib})
		for _, set := range sib {
			for _, h := range set {
				h.Reset()
			}
		}
		res := whole.EndInterval()
		alarmed = alarmed || res.Alarm
		want := fmt.Sprintf("%+v", res)
		got := fmt.Sprintf("%+v", primary.EndInterval())
		if got != want {
			t.Fatalf("interval %d: merged bank diverged:\n got %s\nwant %s", i, got, want)
		}
	}
	if !alarmed {
		t.Error("no alarm; voted meta-data not compared")
	}
}
