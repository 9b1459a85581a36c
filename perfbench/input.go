package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"strings"
	"syscall"
	"unsafe"

	"anomalyx"
	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
	"anomalyx/internal/netflow"
	"anomalyx/internal/tracegen"
)

// input is one workload's generated trace plus the reference reports
// every run is checked against.
type input struct {
	cfg tracegen.Config
	// recs holds the trace interval by interval (live); parts holds it
	// split by flow key, parts[agent][interval] (distributed); v5 holds
	// it as concatenated NetFlow v5 packets (replay). Only the form the
	// workload reads is kept.
	recs  [][]flow.Record
	parts [][][]flow.Record
	v5    [][]byte
	flows int
	// ref holds the fingerprint of the reference report of each interval,
	// and alarm whether that report raised an alarm.
	ref   []string
	alarm []bool
}

// traceForm selects which in-memory form buildInput keeps.
type traceForm int

const (
	formRecords traceForm = iota
	formSplit
	formV5
)

// splitSeed fixes the flow-key hash that partitions the distributed
// workload's trace across agents.
const splitSeed = 0x5eed

// traceConfig returns the small-scale tracegen configuration for a
// benchmark seed: seed 0 is the stock trace, other seeds offset it.
// withEvents keeps the ground-truth anomaly schedule; without it the
// trace is the quiet steady state. intervals and baseFlows override the
// scale when positive (self-tests use tiny traces).
func traceConfig(seed int64, withEvents bool, intervals, baseFlows int) tracegen.Config {
	cfg := tracegen.SmallConfig()
	cfg.Seed += uint64(seed)
	if intervals > 0 {
		cfg.Intervals = intervals
	}
	if baseFlows > 0 {
		cfg.BaseFlows = baseFlows
	}
	cfg.Events = nil
	if withEvents {
		cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	}
	return cfg
}

// buildInput generates the trace and computes the reference: a plain
// pipeline with the default configuration closing each generated
// interval, with no netflow, engine or wire in between. Generation runs
// one interval ahead of the reference on its own goroutine.
func buildInput(cfg tracegen.Config, form traceForm, agents int) (*input, error) {
	g := tracegen.New(cfg)
	ref, err := anomalyx.NewPipeline(anomalyx.Config{})
	if err != nil {
		return nil, err
	}
	defer ref.Close()

	gen := make(chan []flow.Record, 2)
	go func() {
		defer close(gen)
		for idx := 0; idx < cfg.Intervals; idx++ {
			gen <- g.Interval(idx)
		}
	}()

	in := &input{cfg: cfg}
	var mem arena
	var w *netflow.Writer
	split := hash.New(splitSeed)
	var part []flow.Record
	switch form {
	case formV5:
		w = netflow.NewWriter(&mem, cfg.IntervalStart(0))
	case formSplit:
		in.parts = make([][][]flow.Record, agents)
	}
	var werr error
	for recs := range gen {
		if werr != nil {
			continue // drain the generator before returning
		}
		in.flows += len(recs)
		ref.ObserveBatch(recs)
		rep, err := ref.EndInterval()
		if err != nil {
			werr = fmt.Errorf("reference: %w", err)
			continue
		}
		in.ref = append(in.ref, fingerprint(rep))
		in.alarm = append(in.alarm, rep.Alarm)
		switch form {
		case formRecords:
			in.recs = append(in.recs, mem.records(recs))
		case formSplit:
			for a := range in.parts {
				part = part[:0]
				for i := range recs {
					if split.Bin(recs[i].Key(), agents) == a {
						part = append(part, recs[i])
					}
				}
				in.parts[a] = append(in.parts[a], mem.records(part))
			}
		case formV5:
			for i := range recs {
				if err := w.Write(recs[i]); err != nil {
					werr = fmt.Errorf("encoding v5: %w", err)
					break
				}
			}
		}
	}
	if werr != nil {
		return nil, werr
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("encoding v5: %w", err)
		}
		in.v5 = mem.written()
	}
	return in, nil
}

// v5Reader returns a reader over the encoded trace.
func (in *input) v5Reader() io.Reader {
	rs := make([]io.Reader, len(in.v5))
	for i, b := range in.v5 {
		rs[i] = bytes.NewReader(b)
	}
	return io.MultiReader(rs...)
}

// arena holds the trace outside the Go heap, in anonymous mappings that
// live until the process exits. The system under test streams its input
// in production; a 100+ MB trace on the heap would instead pace the
// garbage collector and dominate the heap metrics.
type arena struct {
	chunks [][]byte // mapped chunks; the last is being filled
	off    int      // fill offset in the last chunk
}

const arenaChunk = 64 << 20

// grow maps a fresh chunk of at least n bytes. A mapping failure is out
// of memory, which the benchmark cannot recover from.
func (a *arena) grow(n int) {
	c, err := syscall.Mmap(-1, 0, max(n, arenaChunk), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: mapping trace memory: %v", err))
	}
	a.chunks = append(a.chunks, c)
	a.off = 0
}

// records copies recs into the arena. flow.Record holds no pointers, so
// the garbage collector need not see the copy.
func (a *arena) records(recs []flow.Record) []flow.Record {
	if len(recs) == 0 {
		return nil
	}
	n := len(recs) * int(unsafe.Sizeof(flow.Record{}))
	if len(a.chunks) == 0 || a.off+n > len(a.chunks[len(a.chunks)-1]) {
		a.grow(n)
	}
	b := a.chunks[len(a.chunks)-1][a.off:]
	a.off = (a.off + n + 7) &^ 7
	out := unsafe.Slice((*flow.Record)(unsafe.Pointer(unsafe.SliceData(b))), len(recs))
	copy(out, recs)
	return out
}

// Write appends p to the arena as one byte stream; written returns it.
// An arena holds either records or a stream, not both.
func (a *arena) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(a.chunks) == 0 || a.off == len(a.chunks[len(a.chunks)-1]) {
			a.grow(0)
		}
		k := copy(a.chunks[len(a.chunks)-1][a.off:], p)
		a.off += k
		p = p[k:]
	}
	return n, nil
}

// written returns the stream Write appended, chunk by chunk.
func (a *arena) written() [][]byte {
	out := slices.Clone(a.chunks)
	if len(out) > 0 {
		out[len(out)-1] = out[len(out)-1][:a.off]
	}
	return out
}

// fingerprint digests every report field a user reads: detection
// outcome (per-clone distances, thresholds, voted meta-data), counts,
// support, item-sets with their mining statistics, and the partial
// flag. Two reports with equal fingerprints are equal for the operator.
func fingerprint(r *anomalyx.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%t|%d|%d|%d|%v|%v|%v|%v", r.Interval, r.Alarm, r.TotalFlows,
		r.SuspiciousFlows, r.MinSupport, r.CostReduction, r.Partial, r.Detection, r.ItemSets)
	if r.Mining != nil {
		fmt.Fprintf(&b, "|%v|%v|%d|%d", r.Mining.All, r.Mining.Levels, r.Mining.Transactions, r.Mining.MinSupport)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// verify compares reports, in interval order, with the reference and
// returns how many intervals were attempted and how many failed: a
// missing report, an extra one, or one whose fingerprint differs.
func verify(ref []string, reps []*anomalyx.Report) (attempted, failed int) {
	for i, want := range ref {
		if i >= len(reps) || reps[i] == nil || fingerprint(reps[i]) != want {
			failed++
		}
	}
	attempted = len(ref)
	if extra := len(reps) - len(ref); extra > 0 {
		attempted += extra
		failed += extra
	}
	return attempted, failed
}
