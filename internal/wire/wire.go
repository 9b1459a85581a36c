// Package wire is the cross-process snapshot protocol: a versioned,
// length-prefixed binary codec for the pipeline's mergeable detector
// state, and the agent/collector roles that ship that state over TCP so
// shards can live on separate machines.
//
// The codec serializes the exported snapshot types of the state-owning
// packages — histogram.Snapshot, detector.Snapshot/BankSnapshot,
// core.PipelineSnapshot — into a canonical byte form: varint-packed
// counts, IEEE-754 bit-exact floats, and tracked feature values in
// ascending order. Canonical means deterministic: two equal snapshot
// values always encode to the same bytes, and decode(encode(s))
// re-encodes byte-identically (the FuzzWireRoundTrip invariant). A
// snapshot restored into a pipeline built from the same configuration
// reproduces the original's state exactly, so its subsequent reports are
// byte-identical to the original's — snapshots are lossless checkpoints,
// not approximations.
//
// On top of the codec sit the distributed roles. An Agent runs a local
// (optionally sharded) pipeline as an accumulator: at each measurement
// interval close it drains the open interval — merged clone histograms
// plus the buffered flows — and ships it as one open-interval frame
// tagged with the interval's absolute grid boundary. The open-interval
// form is the full snapshot minus the detection history an agent never
// accumulates (all-zero reference counts, empty KL series); the full
// snapshot is the checkpoint format, so one codec serves both at the
// right sizes. A Collector accepts N agent connections, groups frames by
// boundary, absorbs each group into its primary pipeline in agent-ID
// order — the same histogram merge the in-process shard package runs —
// and closes detection there. Because
// equal-seed histogram clones are exact mergeable sketches, the
// collector's reports are byte-identical to a single process having run
// all N partitions as local shards — the property the loopback
// end-to-end tests pin down for N ∈ {2, 4}.
//
// Framing is length-prefixed (uint32 big-endian length, one type byte,
// payload) with a Hello handshake carrying the protocol version and a
// digest of the detection configuration, so mismatched histogram spaces
// fail fast instead of merging garbage. The protocol is trusted-network
// plumbing: it authenticates nothing and assumes agents and collector
// were launched with the same configuration, as a deployment script
// would.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// codecVersion is the snapshot encoding version; bump it on any change
// to the byte layout. Decoders reject other versions. Version 2
// replaced the row-wise record section with the columnar encoding of
// records.go.
const codecVersion = 2

// appendUvarint, appendVarint, and appendFloat64 are the codec's three
// primitive writers. Floats are stored as their IEEE-754 bit pattern in
// little-endian order — bit-exact round trips, no formatting ambiguity.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// reader is a fail-soft cursor over an encoded snapshot: after the first
// malformed field every subsequent read returns zero values and err()
// reports the failure, so decoders can be written as straight-line code.
type reader struct {
	buf []byte
	off int
	e   error
}

func (r *reader) fail(format string, args ...any) {
	if r.e == nil {
		r.e = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) err() error { return r.e }

// rem returns the number of unread bytes.
func (r *reader) rem() int { return len(r.buf) - r.off }

func (r *reader) byte() byte {
	if r.e != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated input at byte %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) uvarint() uint64 {
	if r.e != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("malformed uvarint at byte %d", r.off)
		return 0
	}
	// Reject non-minimal encodings (e.g. 0x80 0x00 for 0): the codec is
	// canonical — every value has exactly one byte form — so decode must
	// only accept what encode produces, or decode∘encode would not be
	// the identity on accepted inputs.
	if n != uvarintLen(v) {
		r.fail("non-minimal uvarint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// uvarintLen returns the length of the minimal uvarint encoding of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (r *reader) varint() int64 {
	// Decode via uvarint so the minimality check applies: AppendVarint
	// is the zigzag transform over AppendUvarint.
	ux := r.uvarint()
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

// bytes reads n raw bytes into a fresh slice.
func (r *reader) bytes(n int) []byte {
	if r.e != nil {
		return nil
	}
	if r.rem() < n {
		r.fail("truncated %d-byte column at byte %d", n, r.off)
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:])
	r.off += n
	return out
}

func (r *reader) float64() float64 {
	if r.e != nil {
		return 0
	}
	if r.rem() < 8 {
		r.fail("truncated float64 at byte %d", r.off)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return f
}

// length reads a uvarint element count and bounds it by the remaining
// input, assuming each element occupies at least minBytes bytes — a
// corrupt length field then fails cleanly instead of triggering a huge
// allocation.
func (r *reader) length(minBytes int) int {
	n := r.uvarint()
	if r.e != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.rem()/minBytes) {
		r.fail("length %d exceeds remaining input (%d bytes)", n, r.rem())
		return 0
	}
	return int(n)
}

// expectEOF fails unless the reader consumed its whole buffer — the
// codec never leaves trailing bytes, so any remainder is corruption.
func (r *reader) expectEOF() {
	if r.e == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes after snapshot", len(r.buf)-r.off)
	}
}
