package detector

import (
	"fmt"

	"anomalyx/internal/histogram"
)

// Snapshot is the exported, plain-data state of a Detector: the open
// interval's clone histograms plus the full detection history (reference
// counts, KL series, first-difference samples, interval counter).
// Restoring a snapshot into a detector constructed from the same Config
// reproduces the original exactly — its subsequent reports are
// byte-identical to the original's, the wire package's round-trip
// guarantee. The snapshot shares no memory with the detector, and every
// slice is in a canonical order (clones in construction order, tracked
// values sorted ascending), so equal detector states yield deeply equal
// snapshots.
//
// Like histogram.Snapshot, a Snapshot carries state, not configuration:
// the receiving detector must be built from the same Config (features,
// bins, clones, seed, thresholds) for the restore to be meaningful. The
// wire protocol enforces this with a config digest in its handshake.
type Snapshot struct {
	// Clones holds the open interval's histogram state, one per clone in
	// construction order.
	Clones []histogram.Snapshot
	// Prev holds the previous interval's per-clone bin counts — the KL
	// reference distributions.
	Prev [][]uint64
	// KLPrev is the previous interval's KL distance per clone (for the
	// first difference).
	KLPrev []float64
	// HavePrev records whether Prev holds a complete interval; HaveKL
	// whether KLPrev holds a valid distance (needs two intervals).
	HavePrev bool
	HaveKL   bool
	// Diffs is the pooled first-difference history feeding the MAD
	// threshold, oldest first.
	Diffs []float64
	// Interval is the number of intervals closed so far.
	Interval int
}

// Snapshot captures the detector's full state. The result shares no
// memory with the detector.
func (d *Detector) Snapshot() Snapshot {
	s := Snapshot{
		Clones:   make([]histogram.Snapshot, len(d.cur)),
		Prev:     make([][]uint64, len(d.prev)),
		KLPrev:   append([]float64(nil), d.klPrev...),
		HavePrev: d.havePrev,
		HaveKL:   d.haveKL,
		Diffs:    append([]float64(nil), d.diffs...),
		Interval: d.interval,
	}
	for c, h := range d.cur {
		s.Clones[c] = h.Snapshot()
	}
	for c, prev := range d.prev {
		s.Prev[c] = append([]uint64(nil), prev...)
	}
	return s
}

// RestoreSnapshot replaces the detector's state with s. The detector
// must have been constructed with the snapshot's clone and bin counts;
// see Snapshot for the configuration-matching caveat.
func (d *Detector) RestoreSnapshot(s Snapshot) error {
	if len(s.Clones) != len(d.cur) || len(s.Prev) != len(d.prev) || len(s.KLPrev) != len(d.klPrev) {
		return fmt.Errorf("detector: restore snapshot with %d/%d/%d clones into detector with %d",
			len(s.Clones), len(s.Prev), len(s.KLPrev), len(d.cur))
	}
	for _, prev := range s.Prev {
		if len(prev) != d.cfg.Bins {
			return fmt.Errorf("detector: restore snapshot with %d reference bins into detector with %d", len(prev), d.cfg.Bins)
		}
	}
	for c, hs := range s.Clones {
		if err := d.cur[c].RestoreSnapshot(hs); err != nil {
			return err
		}
	}
	for c, prev := range s.Prev {
		copy(d.prev[c], prev)
	}
	copy(d.klPrev, s.KLPrev)
	d.havePrev = s.HavePrev
	d.haveKL = s.HaveKL
	d.diffs = append(d.diffs[:0], s.Diffs...)
	d.interval = s.Interval
	return nil
}

// DrainInterval snapshots the open interval's clone histograms and
// resets them, without touching — or copying — the detection history.
// It is Snapshot restricted to the fields an interval drain actually
// moves: the distributed agent path drains every boundary, and paying a
// deep copy of reference counts, KL series, and threshold samples that
// are all zero on an agent (it never closes detection) was pure waste.
func (d *Detector) DrainInterval() []histogram.Snapshot {
	clones := make([]histogram.Snapshot, len(d.cur))
	for c, h := range d.cur {
		clones[c] = h.Snapshot()
		h.Reset()
	}
	return clones
}

// AbsorbClones folds drained clone-histogram snapshots into the open
// interval additively, so a collector merges a shipped interval
// straight into its detector. clones must be in clone order and
// match the detector's clone count; the usual mergeable-sketch caveat
// applies (both sides built from the same Config and Seed).
func (d *Detector) AbsorbClones(clones []histogram.Snapshot) error {
	if len(clones) != len(d.cur) {
		return fmt.Errorf("detector: absorb %d clone snapshots into detector with %d clones", len(clones), len(d.cur))
	}
	for c, hs := range clones {
		if err := d.cur[c].MergeSnapshot(hs); err != nil {
			return err
		}
	}
	return nil
}

// BankSnapshot is the exported state of a Bank: one detector snapshot
// per monitored feature, in the bank's feature order.
type BankSnapshot struct {
	Detectors []Snapshot
}

// Snapshot captures every detector's state, in feature order. It locks
// the bank, so it must not run concurrently with an in-flight
// ObserveBatch from the same goroutine chain that would deadlock.
func (b *Bank) Snapshot() BankSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BankSnapshot{Detectors: make([]Snapshot, len(b.detectors))}
	for i, d := range b.detectors {
		s.Detectors[i] = d.Snapshot()
	}
	return s
}

// RestoreSnapshot replaces every detector's state with the snapshot's,
// in feature order. The bank must monitor the same number of features
// with the same detector parameters as the snapshot's source.
func (b *Bank) RestoreSnapshot(s BankSnapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(s.Detectors) != len(b.detectors) {
		return fmt.Errorf("detector: restore bank snapshot with %d detectors into bank with %d",
			len(s.Detectors), len(b.detectors))
	}
	for i, d := range b.detectors {
		if err := d.RestoreSnapshot(s.Detectors[i]); err != nil {
			return err
		}
	}
	return nil
}

// DrainInterval snapshots and resets every detector's open interval in
// feature order (see Detector.DrainInterval), leaving detection history
// untouched and uncopied.
func (b *Bank) DrainInterval() [][]histogram.Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]histogram.Snapshot, len(b.detectors))
	for i, d := range b.detectors {
		out[i] = d.DrainInterval()
	}
	return out
}

// AbsorbInterval folds drained clone snapshots — one slice per detector
// in feature order, as DrainInterval returns them — into the open
// interval (see Detector.AbsorbClones).
func (b *Bank) AbsorbInterval(clones [][]histogram.Snapshot) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(clones) != len(b.detectors) {
		return fmt.Errorf("detector: absorb %d detector intervals into bank with %d detectors",
			len(clones), len(b.detectors))
	}
	for i, d := range b.detectors {
		if err := d.AbsorbClones(clones[i]); err != nil {
			return err
		}
	}
	return nil
}
