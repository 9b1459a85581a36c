// Package engine provides a channel-based streaming front end for the
// anomaly-extraction pipeline: callers submit flow records as they
// arrive (from a collector socket, a trace file, a message queue) and
// receive one Report per measurement interval on a channel.
//
// The engine shards the incoming stream into measurement intervals by
// flow start time — the boundary grid is aligned to IntervalLen, like a
// router's export clock. Boundary crossings are detected on the submit
// side, so SubmitBatch can synchronously return how many intervals a
// batch closed (lockstep consumers need no boundary arithmetic of their
// own), while the processing goroutine just executes the resulting
// record/cut stream: records are grouped into batches to amortize
// per-record pipeline overhead via ObserveBatch, and each cut closes an
// interval (detection + extraction). Both channels are bounded, so a
// slow consumer exerts backpressure all the way back to Submit instead
// of growing an unbounded queue. With Config.Shards > 1 the engine
// drives a hash-partitioned shard.ShardedPipeline instead of a single
// pipeline, parallelizing ingestion across shards with a deterministic
// cross-shard merge at each interval close.
//
//	eng, _ := engine.New(engine.Config{IntervalLen: 15 * time.Minute})
//	go func() {
//		for rep := range eng.Reports() {
//			handle(rep)
//		}
//	}()
//	for recs := range source {
//		eng.SubmitBatch(recs)
//	}
//	if err := eng.Close(); err != nil {
//		log.Fatal(err)
//	}
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
)

// Config parameterizes a streaming engine.
type Config struct {
	// Pipeline configures the underlying extraction pipeline; zero-value
	// fields take the paper's defaults (see core.Config).
	Pipeline core.Config
	// Shards selects hash-partitioned multi-pipeline sharding: when > 1
	// the engine drives a shard.ShardedPipeline of that many pipelines
	// (flows partitioned by the stable hash of the flow key, reports
	// merged deterministically at each interval close). 0 or 1 runs a
	// single pipeline.
	Shards int
	// IntervalLen is the measurement-interval length Delta (default the
	// paper's 15 minutes). Interval boundaries are aligned to multiples
	// of IntervalLen from the epoch, seeded by the first record.
	IntervalLen time.Duration
	// BatchSize is the number of Submit records grouped into one
	// ObserveBatch call (default 512). SubmitBatch batches bypass this
	// grouping — they are already batches.
	BatchSize int
	// Buffer is the input-channel capacity — the backpressure bound.
	// Submit blocks once Buffer messages are queued (default 8192).
	Buffer int
	// PipelineDepth is the maximum number of measurement intervals the
	// engine may have open at once: the interval accumulating records,
	// plus up to PipelineDepth-1 drained closes finishing (detection +
	// extraction) on an asynchronous close worker. 1 (the default) runs
	// every close inline on the processing goroutine — today's fully
	// synchronous behavior. Depths > 1 overlap the expensive close with
	// the next interval's ingestion: each cut swaps the closed interval's
	// state out of the hot path in O(1) and hands it to the worker, which
	// finishes closes strictly in boundary order, so reports are
	// byte-identical to the synchronous path (see PipelinedSink). Once
	// PipelineDepth-1 closes are in flight, the next cut blocks — close
	// backpressure propagates to Submit exactly like full input buffers.
	// Depths > 1 require a sink implementing PipelinedSink (the built-in
	// pipeline and sharded backends do); for other sinks the engine falls
	// back to the synchronous close.
	PipelineDepth int
}

func (c Config) withDefaults() Config {
	if c.IntervalLen <= 0 {
		c.IntervalLen = 15 * time.Minute
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 512
	}
	if c.Buffer <= 0 {
		c.Buffer = 8192
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 1
	}
	return c
}

// Sink is the extraction backend an engine drives: a single
// core.Pipeline, a hash-partitioned shard.ShardedPipeline, or a custom
// backend injected with NewWithSink (the wire package's distributed
// agent, which ships each interval to a remote collector instead of
// closing detection locally). All accumulate observed flows into the
// current measurement interval and close it on EndInterval.
type Sink interface {
	ObserveBatch([]flow.Record)
	EndInterval() (*core.Report, error)
	Close()
}

// BoundarySink is an optional Sink extension for backends that need to
// know *which* interval is closing: EndIntervalAt receives the grid end
// of the closing interval (Unix milliseconds — the boundary the records
// crossed, or the in-progress interval's boundary for the final flush at
// Close; 0 when the stream held no records at all). The engine calls
// EndIntervalAt instead of EndInterval when the sink implements it. The
// distributed agent uses this to tag shipped snapshots with an absolute
// boundary, so a collector can merge intervals from agents whose streams
// started or ended at different times.
type BoundarySink interface {
	Sink
	EndIntervalAt(boundary int64) (*core.Report, error)
}

// PipelinedSink is an optional Sink extension for backends whose
// interval close splits into a cheap synchronous drain and a deferred
// finish. BeginClose atomically swaps the open interval's state (clone
// histograms + flow buffer) out of the hot path and returns a
// core.PendingClose; the engine's close worker calls Finish — the
// expensive detection + extraction — while the next interval's records
// keep flowing. Finishes run strictly in drain order on one worker, the
// ordering the sequential KL scheme requires, so reports stay
// byte-identical to the synchronous path. core.Pipeline and
// shard.ShardedPipeline implement it; the engine uses it only when
// Config.PipelineDepth > 1.
type PipelinedSink interface {
	Sink
	BeginClose() (*core.PendingClose, error)
}

// msg is one unit of the submit→process stream: a single record, a
// pre-formed batch, or an interval-cut marker. Cuts are generated on the
// submit side, so their position in the channel order is authoritative —
// the processor closes intervals exactly where the submitters crossed
// the boundary grid. Consecutive cuts collapse into one counted message:
// a quiet gap spanning thousands of empty intervals costs one channel
// slot, so a lockstep consumer (submit, then read the returned number of
// reports) cannot wedge the input buffer no matter how long the gap.
type msg struct {
	rec      flow.Record
	recs     []flow.Record // batch; nil for single-record and cut messages
	cuts     int           // close this many intervals; no payload
	boundary int64         // grid end of the first closed interval (cut messages only)
}

// Engine is the streaming front end. Submit and SubmitBatch may be
// called from multiple goroutines; Reports delivers interval reports in
// interval order.
//
// On a pipeline error the engine settles Err, closes Reports
// immediately — even while producers are still submitting — and
// silently discards further input until Close, so a consumer on a live
// stream learns about the failure right away.
type Engine struct {
	cfg  Config
	sink Sink
	p    *core.Pipeline // the unsharded pipeline; nil when Shards > 1

	// submitMu guards the boundary grid and orders messages from
	// concurrent producers into the input channel.
	submitMu sync.Mutex
	boundary int64 // end of the current interval; meaningless until seeded
	// seeded records whether the first record has seeded the boundary
	// grid. It is an explicit flag rather than a boundary==0 sentinel
	// because 0 is a legitimate grid boundary: a pre-epoch stream (e.g.
	// starting at -500 ms) has its first interval end exactly at 0.
	seeded bool

	in   chan msg
	out  chan *core.Report
	fin  chan struct{} // closed once err is settled, before out closes
	done chan struct{} // closed when the processing goroutine exits

	closeOnce sync.Once
	err       error // settled before fin closes
}

// New builds an engine and starts its processing goroutine.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg = e.cfg; cfg.Shards > 1 {
		sp, err := shard.New(shard.Config{Shards: cfg.Shards, Pipeline: cfg.Pipeline})
		if err != nil {
			return nil, err
		}
		e.sink = sp
	} else {
		p, err := core.New(cfg.Pipeline)
		if err != nil {
			return nil, err
		}
		e.p, e.sink = p, p
	}
	go e.run()
	return e, nil
}

// NewWithSink builds an engine around a caller-provided extraction
// backend and starts its processing goroutine. The engine owns the
// stream mechanics — interval sharding by flow start time, batching,
// backpressure — while the sink decides what an interval close means;
// the wire package's distributed agent injects a sink that drains its
// pipeline's open interval and ships it to a collector. cfg.Pipeline and
// cfg.Shards are ignored (the sink already embodies them); the engine
// Closes the sink when it is Closed, and Pipeline() returns nil.
func NewWithSink(cfg Config, sink Sink) (*Engine, error) {
	if sink == nil {
		return nil, fmt.Errorf("engine: nil sink")
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.sink = sink
	go e.run()
	return e, nil
}

// newEngine validates cfg and builds the channel plumbing; the caller
// sets the sink and starts run.
func newEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.IntervalLen < time.Millisecond {
		// Flow timestamps are in milliseconds; anything finer truncates
		// to a zero-length boundary grid.
		return nil, fmt.Errorf("engine: interval length %v below 1ms resolution", cfg.IntervalLen)
	}
	if cfg.Shards < 0 {
		// Reject rather than silently running unsharded: shard.New
		// errors on the same input, and the two entry points should
		// agree.
		return nil, fmt.Errorf("engine: negative shard count %d", cfg.Shards)
	}
	return &Engine{
		cfg:  cfg,
		in:   make(chan msg, cfg.Buffer),
		out:  make(chan *core.Report, 16),
		fin:  make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// BoundaryAfter returns the end of the measurement interval containing
// timestamp ms (Unix milliseconds) on the engine's boundary grid —
// intervals are aligned to multiples of IntervalLen from the epoch, on
// both sides of it. The modulo is floored, not truncated: Go's `%`
// follows the dividend's sign, so `ms - ms%step + step` would round
// pre-epoch timestamps toward zero and misalign their grid (with a 1 s
// interval, BoundaryAfter(-500) must be 0, not 1000).
func (e *Engine) BoundaryAfter(ms int64) int64 {
	step := e.cfg.IntervalLen.Milliseconds()
	rem := ms % step
	if rem < 0 {
		rem += step
	}
	return ms - rem + step
}

// Sink exposes the extraction backend (read-only use; mutating it
// concurrently with a running engine races with the processing
// goroutine).
func (e *Engine) Sink() Sink { return e.sink }

// Pipeline exposes the underlying unsharded extraction pipeline; it is
// nil when the engine runs sharded (Config.Shards > 1) or around an
// injected sink (NewWithSink) — use Sink then.
func (e *Engine) Pipeline() *core.Pipeline { return e.p }

// maxGapIntervals bounds how many empty intervals one timestamp gap may
// close. A single corrupt or far-future flow timestamp would otherwise
// make the processor grind through millions of empty detection rounds
// and flood Reports; past the bound the engine treats the gap as a
// clock jump instead — close the current interval once and re-seed the
// boundary grid from the new timestamp, exactly as it was seeded by the
// first record.
const maxGapIntervals = 4096

// advanceLocked seeds or advances the boundary grid past timestamp ts,
// enqueueing one counted cut marker covering every crossed boundary; it
// returns the number of cuts. submitMu must be held.
func (e *Engine) advanceLocked(ts int64) int {
	if !e.seeded {
		e.seeded = true
		e.boundary = e.BoundaryAfter(ts)
		return 0
	}
	if ts < e.boundary {
		return 0
	}
	step := e.cfg.IntervalLen.Milliseconds()
	first := e.boundary // grid end of the first interval this run closes
	n := (ts-e.boundary)/step + 1
	if n > maxGapIntervals {
		// Clock jump: one cut for the interval in progress, fresh grid.
		e.boundary = e.BoundaryAfter(ts)
		n = 1
	} else {
		e.boundary += n * step
	}
	e.in <- msg{cuts: int(n), boundary: first}
	return int(n)
}

// Submit queues one flow record, blocking when the input buffer is full
// (backpressure). It must not be called after Close.
func (e *Engine) Submit(rec flow.Record) {
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	e.advanceLocked(rec.Start)
	e.in <- msg{rec: rec}
}

// SubmitBatch queues a batch of flow records in one step — collectors
// that already batch skip the per-record channel overhead — and returns
// the number of measurement intervals the batch closed: boundary
// crossings are detected here, on the submit side, so lockstep consumers
// can read exactly that many reports without mirroring the engine's
// boundary arithmetic. The records are copied; the caller may reuse
// recs. Like Submit it blocks for backpressure and must not be called
// after Close. The returned error is the pipeline error that has
// terminated the engine, if any (further input is discarded once it is
// set); the cut count is still returned for bookkeeping.
//
// A lockstep consumer may read exactly intervalsClosed reports after
// each call from the same goroutine: SubmitBatch enqueues at most two
// messages per record that crosses an interval boundary (gaps of any
// length collapse into one counted cut), so with the default Buffer a
// single batch would need thousands of boundary-crossing records to
// fill the input channel before returning. Split such batches — or
// consume reports concurrently — if records are that sparse.
func (e *Engine) SubmitBatch(recs []flow.Record) (intervalsClosed int, err error) {
	if len(recs) == 0 {
		return 0, e.Err()
	}
	buf := make([]flow.Record, len(recs))
	copy(buf, recs)
	e.submitMu.Lock()
	defer e.submitMu.Unlock()
	closed := 0
	start := 0
	for i := range buf {
		if !e.seeded || buf[i].Start >= e.boundary {
			// Flush the records before the crossing, then cut.
			if i > start {
				e.in <- msg{recs: buf[start:i]}
				start = i
			}
			closed += e.advanceLocked(buf[i].Start)
		}
	}
	if start < len(buf) {
		e.in <- msg{recs: buf[start:]}
	}
	return closed, e.Err()
}

// Reports returns the channel of per-interval reports. It is closed
// after the final interval has been emitted (following Close) or after
// a pipeline error; Err reports the cause in the latter case.
func (e *Engine) Reports() <-chan *core.Report { return e.out }

// Close ends the stream: the current partial interval is flushed, its
// report emitted, and the Reports channel closed. Close blocks until the
// processing goroutine has drained, releases the pipeline's worker
// pools, and returns the first pipeline error, if any. It is idempotent.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() { close(e.in) })
	<-e.done
	e.sink.Close()
	return e.err
}

// Err returns the pipeline error that terminated the engine, if any.
// It is meaningful once the Reports channel has closed: the error is
// settled before Reports closes, so a consumer that observed the close
// always sees the cause.
func (e *Engine) Err() error {
	select {
	case <-e.fin:
		return e.err
	default:
		return nil
	}
}

// run is the processing goroutine: process the stream, settle the
// error, close Reports, and keep draining input until the producers
// Close so a failed pipeline never blocks a live stream.
func (e *Engine) run() {
	defer close(e.done)
	e.err = e.process()
	close(e.fin)
	close(e.out)
	if e.err != nil {
		// Discard further input until Close; the error is surfaced
		// through Err (Reports just closed) and Close.
		for range e.in {
		}
	}
}

// process executes the record/cut stream: it groups single records into
// batches, forwards pre-formed batches as-is, and closes an interval at
// every cut marker; it returns the first pipeline error. Cut messages
// carry the grid end of the first interval they close, so a BoundarySink
// receives the absolute boundary of every closed interval. How a cut
// closes is chosen once, up front: inline at PipelineDepth 1, or via the
// close worker of startCloseWorker at depth > 1.
func (e *Engine) process() error {
	batch := make([]flow.Record, 0, e.cfg.BatchSize)
	step := e.cfg.IntervalLen.Milliseconds()
	flushBatch := func() {
		e.sink.ObserveBatch(batch)
		batch = batch[:0]
	}

	closeAt := e.closeInline
	var failed <-chan struct{} // nil (never ready) without a close worker
	join := func() error { return nil }
	if ps, ok := e.sink.(PipelinedSink); ok && e.cfg.PipelineDepth > 1 {
		closeAt, failed, join = e.startCloseWorker(ps)
	}
	// closeNext flushes the pending records into the closing interval and
	// closes it; on a close error the worker's earlier error, if any,
	// takes precedence.
	closeNext := func(boundary int64) error {
		flushBatch()
		if err := closeAt(boundary); err != nil {
			if werr := join(); werr != nil {
				return werr
			}
			return err
		}
		return nil
	}

	for {
		var m msg
		var ok bool
		// Also watch for worker failure while idle, so the engine settles
		// Err and closes Reports promptly even if producers go quiet.
		select {
		case m, ok = <-e.in:
		case <-failed:
			return join()
		}
		if !ok {
			break
		}
		switch {
		case m.cuts > 0:
			for i := 0; i < m.cuts; i++ {
				select {
				case <-failed:
					return join()
				default:
				}
				if err := closeNext(m.boundary + int64(i)*step); err != nil {
					return err
				}
			}
		case m.recs != nil:
			// Pre-formed batch: flush pending singles first to preserve
			// submission order, then observe it whole.
			flushBatch()
			e.sink.ObserveBatch(m.recs)
		default:
			batch = append(batch, m.rec)
			if len(batch) >= e.cfg.BatchSize {
				flushBatch()
			}
		}
	}
	// Final flush: close the in-progress interval. Its boundary is the
	// submit side's current grid end — settled, since Close forbids
	// further submits before closing the input channel (taking submitMu
	// also orders this read after any straggling Submit returned).
	e.submitMu.Lock()
	final := e.boundary
	e.submitMu.Unlock()
	if err := closeNext(final); err != nil {
		return err
	}
	return join()
}

// closeInline closes the interval ending at boundary on the processing
// goroutine and emits its report — the PipelineDepth 1 close.
func (e *Engine) closeInline(boundary int64) error {
	var rep *core.Report
	var err error
	if bs, ok := e.sink.(BoundarySink); ok {
		rep, err = bs.EndIntervalAt(boundary)
	} else {
		rep, err = e.sink.EndInterval()
	}
	if err != nil {
		// Attribute the failure to its grid boundary: a distributed sink
		// error ("collector unreachable") is actionable only with the
		// interval it lost.
		return fmt.Errorf("engine: closing interval at boundary %d: %w", boundary, err)
	}
	e.out <- rep
	return nil
}

// pendingClose pairs a drained interval close with the grid boundary it
// covers, for error attribution on the close worker.
type pendingClose struct {
	pc       *core.PendingClose
	boundary int64
}

// startCloseWorker starts the PipelineDepth > 1 close machinery: a cut
// drains the closing interval in O(1) via PipelinedSink.BeginClose and
// hands it to a single close-worker goroutine, which finishes closes
// strictly in drain order and emits their reports — the ordered
// completion queue. Ingestion continues on the processing goroutine
// while up to PipelineDepth-1 finishes are in flight; a full close queue
// blocks the next cut, propagating backpressure to Submit. It returns
// the close function, a channel closed on the worker's first error, and
// join, which stops the worker, waits for in-flight finishes, and
// returns the first worker error — every return path of process funnels
// through join so reports of completed closes are always emitted before
// Reports closes.
func (e *Engine) startCloseWorker(ps PipelinedSink) (closeAt func(int64) error, failed <-chan struct{}, join func() error) {
	closeCh := make(chan pendingClose, e.cfg.PipelineDepth-1)
	failedCh := make(chan struct{}) // closed by the worker on its first error
	workerDone := make(chan struct{})
	var workerErr error // written before failedCh closes, read after workerDone
	go func() {
		defer close(workerDone)
		for pc := range closeCh {
			if workerErr != nil {
				continue // drop: the engine is terminating
			}
			// The channel send that delivered pc promoted this goroutine to
			// the scheduler's next slot, ahead of the producer the cut just
			// unblocked. Yield before the long finish so that on saturated
			// GOMAXPROCS the ingest path resumes first — deferred work must
			// never cut the submit-latency line it exists to shorten.
			runtime.Gosched()
			rep, err := pc.pc.Finish()
			if err != nil {
				workerErr = fmt.Errorf("engine: closing interval at boundary %d: %w", pc.boundary, err)
				close(failedCh)
				continue
			}
			e.out <- rep
		}
	}()
	closeAt = func(boundary int64) error {
		pc, err := ps.BeginClose()
		if err != nil {
			return fmt.Errorf("engine: draining interval at boundary %d: %w", boundary, err)
		}
		select {
		case closeCh <- pendingClose{pc, boundary}:
		case <-failedCh:
			// The worker has failed; drop this drain and let the caller
			// observe failed on its next check.
		}
		return nil
	}
	join = func() error {
		close(closeCh)
		<-workerDone
		return workerErr
	}
	return closeAt, failedCh, join
}
