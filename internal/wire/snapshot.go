package wire

import (
	"fmt"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/histogram"
)

// appendHistogram encodes one histogram snapshot: bin count, per-bin
// counts, total, and — when value tracking is on — each bin's tracked
// values. The snapshot's canonical form (values ascending per bin) is
// written verbatim, which is what makes the encoding deterministic.
func appendHistogram(b []byte, s histogram.Snapshot) []byte {
	b = appendUvarint(b, uint64(len(s.Counts)))
	for _, c := range s.Counts {
		b = appendUvarint(b, c)
	}
	b = appendUvarint(b, s.Total)
	if s.Values == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	for _, vs := range s.Values {
		b = appendUvarint(b, uint64(len(vs)))
		for _, vc := range vs {
			b = appendUvarint(b, vc.Value)
			b = appendUvarint(b, vc.Count)
		}
	}
	return b
}

func decodeHistogram(r *reader) histogram.Snapshot {
	var s histogram.Snapshot
	k := r.length(1)
	s.Counts = make([]uint64, k)
	for i := range s.Counts {
		s.Counts[i] = r.uvarint()
	}
	s.Total = r.uvarint()
	switch tracked := r.byte(); tracked {
	case 0:
		return s
	case 1:
	default:
		r.fail("invalid value-tracking flag %d", tracked)
		return s
	}
	s.Values = make([][]histogram.ValueCount, k)
	// All bins parse into one slab in a single pass — a handful of
	// allocations per histogram instead of one per non-empty bin, which
	// used to dominate decode's allocation profile (~12k allocs per
	// paper-shaped pipeline snapshot). Total is the sum of the entry
	// counts, so it upper-bounds the distinct-value count on anything
	// the encoder produced (only corrupt inputs carry zero-count
	// entries in bulk, and those merely pay append growth); the bound
	// is clamped by the remaining input so a forged Total cannot force
	// a huge allocation. Bin boundaries are recorded as offsets and
	// sub-sliced once the slab stops moving, capacity-clipped so an
	// append through one bin cannot reach the next bin's entries.
	// reflect.DeepEqual cannot tell slab sub-slices from individually
	// allocated ones, so round-trip equality holds.
	hint := r.rem() / 2 // a value entry is at least two bytes
	if s.Total < uint64(hint) {
		hint = int(s.Total)
	}
	slab := make([]histogram.ValueCount, 0, hint)
	offs := make([]int, k+1)
	for b := 0; b < k; b++ {
		n := r.length(2)
		for i := 0; i < n; i++ {
			slab = append(slab, histogram.ValueCount{Value: r.uvarint(), Count: r.uvarint()})
		}
		offs[b+1] = len(slab)
	}
	if r.err() != nil {
		return s
	}
	for b := 0; b < k; b++ {
		if offs[b+1] > offs[b] {
			s.Values[b] = slab[offs[b]:offs[b+1]:offs[b+1]]
		}
	}
	return s
}

// appendDetector encodes one detector snapshot: the open interval's
// clone histograms, then the detection history (reference counts, KL
// series, pooled first differences, interval counter).
func appendDetector(b []byte, s detector.Snapshot) []byte {
	b = appendUvarint(b, uint64(len(s.Clones)))
	for _, hs := range s.Clones {
		b = appendHistogram(b, hs)
	}
	b = appendUvarint(b, uint64(len(s.Prev)))
	for _, prev := range s.Prev {
		b = appendUvarint(b, uint64(len(prev)))
		for _, c := range prev {
			b = appendUvarint(b, c)
		}
	}
	b = appendUvarint(b, uint64(len(s.KLPrev)))
	for _, kl := range s.KLPrev {
		b = appendFloat64(b, kl)
	}
	b = append(b, boolByte(s.HavePrev), boolByte(s.HaveKL))
	b = appendUvarint(b, uint64(len(s.Diffs)))
	for _, d := range s.Diffs {
		b = appendFloat64(b, d)
	}
	return appendUvarint(b, uint64(s.Interval))
}

func decodeDetector(r *reader) detector.Snapshot {
	var s detector.Snapshot
	s.Clones = make([]histogram.Snapshot, r.length(3))
	for i := range s.Clones {
		s.Clones[i] = decodeHistogram(r)
	}
	s.Prev = make([][]uint64, r.length(1))
	for i := range s.Prev {
		prev := make([]uint64, r.length(1))
		for j := range prev {
			prev[j] = r.uvarint()
		}
		s.Prev[i] = prev
	}
	s.KLPrev = make([]float64, r.length(8))
	for i := range s.KLPrev {
		s.KLPrev[i] = r.float64()
	}
	s.HavePrev = decodeBool(r)
	s.HaveKL = decodeBool(r)
	// nil for empty, matching Detector.Snapshot's append-to-nil shape, so
	// decode(encode(s)) is deeply equal to s, not just equivalent.
	if n := r.length(8); n > 0 {
		s.Diffs = make([]float64, n)
		for i := range s.Diffs {
			s.Diffs[i] = r.float64()
		}
	}
	s.Interval = int(r.uvarint())
	return s
}

// appendBank encodes a bank snapshot: the detectors in feature order.
func appendBank(b []byte, s detector.BankSnapshot) []byte {
	b = appendUvarint(b, uint64(len(s.Detectors)))
	for _, ds := range s.Detectors {
		b = appendDetector(b, ds)
	}
	return b
}

func decodeBank(r *reader) detector.BankSnapshot {
	var s detector.BankSnapshot
	s.Detectors = make([]detector.Snapshot, r.length(8))
	for i := range s.Detectors {
		s.Detectors[i] = decodeDetector(r)
	}
	return s
}

// The record section is columnar — see records.go for the per-column
// schemes and the canonicality argument. Every field is carried —
// including TCP flags and both timestamps — so a restored buffer
// prefilters and mines exactly like the original.

// EncodeBankSnapshot serializes a bank snapshot, prefixed with the codec
// version. The encoding is canonical: equal snapshots yield equal bytes.
func EncodeBankSnapshot(s detector.BankSnapshot) []byte {
	return appendBank([]byte{codecVersion}, s)
}

// DecodeBankSnapshot parses an EncodeBankSnapshot payload. It rejects
// unknown codec versions, truncated input, and trailing bytes.
func DecodeBankSnapshot(b []byte) (detector.BankSnapshot, error) {
	r := &reader{buf: b}
	if v := r.byte(); r.err() == nil && v != codecVersion {
		return detector.BankSnapshot{}, fmt.Errorf("wire: unsupported codec version %d (want %d)", v, codecVersion)
	}
	s := decodeBank(r)
	r.expectEOF()
	return s, r.err()
}

// EncodePipelineSnapshot serializes a pipeline snapshot — bank state
// plus the open interval's flow buffer — prefixed with the codec
// version. The encoding is canonical: equal snapshots yield equal bytes.
func EncodePipelineSnapshot(s core.PipelineSnapshot) []byte {
	return AppendPipelineSnapshot([]byte{codecVersion}, s)
}

// AppendPipelineSnapshot appends the body of a pipeline snapshot
// (without the version byte) to b and returns the extended slice.
func AppendPipelineSnapshot(b []byte, s core.PipelineSnapshot) []byte {
	b = appendBank(b, s.Bank)
	return appendRecordSection(b, &s.Buffer)
}

// DecodePipelineSnapshot parses an EncodePipelineSnapshot payload. It
// rejects unknown codec versions, truncated input, and trailing bytes.
func DecodePipelineSnapshot(b []byte) (core.PipelineSnapshot, error) {
	r := &reader{buf: b}
	if v := r.byte(); r.err() == nil && v != codecVersion {
		return core.PipelineSnapshot{}, fmt.Errorf("wire: unsupported codec version %d (want %d)", v, codecVersion)
	}
	s := decodePipelineBody(r)
	r.expectEOF()
	return s, r.err()
}

// decodePipelineBody parses a pipeline snapshot body (after the version
// byte).
func decodePipelineBody(r *reader) core.PipelineSnapshot {
	var s core.PipelineSnapshot
	s.Bank = decodeBank(r)
	s.Buffer = decodeRecordSection(r)
	return s
}

// The lean open-interval form. An agent's pipeline never closes
// detection, so of a full pipeline snapshot only the open interval
// carries information: the reference counts are all zero, the KL series
// empty, the interval counter zero. The open-interval encoding is
// exactly core.OpenInterval — per detector the clone histograms alone,
// then the flow buffer — matching the lean drain
// (Pipeline.DrainOpenInterval) on the agent side and the additive
// absorb (Pipeline.AbsorbOpenInterval) on the collector side, so the
// dead history is never copied, encoded, or restored anywhere on the
// per-interval path. Full snapshots are the checkpoint format, where
// history is the point.

// openIntervalOnly guards the lean form: encoding a snapshot that
// carries history would silently discard it, so it is refused instead.
func openIntervalOnly(s core.PipelineSnapshot) error {
	for i, ds := range s.Bank.Detectors {
		if ds.HavePrev || ds.HaveKL || len(ds.Diffs) != 0 || ds.Interval != 0 {
			return fmt.Errorf("wire: detector %d carries detection history; encode a full snapshot", i)
		}
		if len(ds.Prev) != len(ds.Clones) || len(ds.KLPrev) != len(ds.Clones) {
			return fmt.Errorf("wire: detector %d history shape does not match its %d clones", i, len(ds.Clones))
		}
		for c, prev := range ds.Prev {
			if len(prev) != len(ds.Clones[c].Counts) {
				return fmt.Errorf("wire: detector %d clone %d reference length %d does not match %d bins",
					i, c, len(prev), len(ds.Clones[c].Counts))
			}
			for _, n := range prev {
				if n != 0 {
					return fmt.Errorf("wire: detector %d carries a reference interval; encode a full snapshot", i)
				}
			}
		}
		for _, kl := range ds.KLPrev {
			if kl != 0 {
				return fmt.Errorf("wire: detector %d carries a KL history; encode a full snapshot", i)
			}
		}
	}
	return nil
}

// appendOpenInterval appends the lean body: per detector the clone
// histograms only, then the buffered flows.
func appendOpenInterval(b []byte, oi core.OpenInterval) []byte {
	b = appendUvarint(b, uint64(len(oi.Clones)))
	for _, clones := range oi.Clones {
		b = appendUvarint(b, uint64(len(clones)))
		for _, hs := range clones {
			b = appendHistogram(b, hs)
		}
	}
	return appendRecordSection(b, &oi.Buffer)
}

// decodeOpenIntervalBody parses a lean body into the drained
// open-interval form the collector absorbs additively.
func decodeOpenIntervalBody(r *reader) core.OpenInterval {
	var oi core.OpenInterval
	oi.Clones = make([][]histogram.Snapshot, r.length(8))
	for i := range oi.Clones {
		clones := make([]histogram.Snapshot, r.length(3))
		for c := range clones {
			clones[c] = decodeHistogram(r)
		}
		oi.Clones[i] = clones
	}
	oi.Buffer = decodeRecordSection(r)
	return oi
}

// openIntervalOf projects a history-free pipeline snapshot onto the
// lean form. Callers must have checked openIntervalOnly.
func openIntervalOf(s core.PipelineSnapshot) core.OpenInterval {
	oi := core.OpenInterval{
		Clones: make([][]histogram.Snapshot, len(s.Bank.Detectors)),
		Buffer: s.Buffer,
	}
	for i, ds := range s.Bank.Detectors {
		oi.Clones[i] = ds.Clones
	}
	return oi
}

// expandOpenInterval reconstructs the full snapshot shape from the lean
// form, with canonical empty history sized from the decoded clones (the
// bin count travels inside each histogram).
func expandOpenInterval(oi core.OpenInterval) core.PipelineSnapshot {
	var s core.PipelineSnapshot
	s.Bank.Detectors = make([]detector.Snapshot, len(oi.Clones))
	for i, clones := range oi.Clones {
		ds := detector.Snapshot{
			Clones: clones,
			Prev:   make([][]uint64, len(clones)),
			KLPrev: make([]float64, len(clones)),
		}
		for c := range clones {
			ds.Prev[c] = make([]uint64, len(clones[c].Counts))
		}
		s.Bank.Detectors[i] = ds
	}
	s.Buffer = oi.Buffer
	return s
}

// EncodeOpenIntervalSnapshot serializes a drained open interval in the
// lean form, prefixed with the codec version. It errors if the snapshot
// carries detection history (reference counts, KL series, closed
// intervals) — use EncodePipelineSnapshot for checkpoints.
func EncodeOpenIntervalSnapshot(s core.PipelineSnapshot) ([]byte, error) {
	if err := openIntervalOnly(s); err != nil {
		return nil, err
	}
	return appendOpenInterval([]byte{codecVersion}, openIntervalOf(s)), nil
}

// DecodeOpenIntervalSnapshot parses an EncodeOpenIntervalSnapshot
// payload into a full pipeline snapshot with canonical empty history.
// It rejects unknown codec versions, truncated input, and trailing
// bytes.
func DecodeOpenIntervalSnapshot(b []byte) (core.PipelineSnapshot, error) {
	r := &reader{buf: b}
	if v := r.byte(); r.err() == nil && v != codecVersion {
		return core.PipelineSnapshot{}, fmt.Errorf("wire: unsupported codec version %d (want %d)", v, codecVersion)
	}
	oi := decodeOpenIntervalBody(r)
	r.expectEOF()
	return expandOpenInterval(oi), r.err()
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func decodeBool(r *reader) bool {
	switch b := r.byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d", b)
		return false
	}
}
