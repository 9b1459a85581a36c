package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"

	"anomalyx"
	"anomalyx/internal/core"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/prefilter"
)

// The traced pass replays a workload with every layer call timed from
// here, around the layers' public functions. It runs in lockstep: the
// producer waits after each SubmitBatch until the engine has handed the
// batch to the pipeline, so spans never overlap and their sum can be
// set against the pass's wall time. Where one layer runs inside
// another's call (prefilter, itemset and mining inside EndInterval; the
// flow buffer inside ObserveBatch) the inner function is called again
// on the same input outside the outer span, its output is checked
// against the report, and that duplicate work is excluded from the
// traced wall.

// closeSpan is one interval close and the extraction calls re-run on
// its input.
type closeSpan struct {
	close, prefilter, itemset, mine time.Duration
}

// spans accumulates the traced passes of a run.
type spans struct {
	mu sync.Mutex

	submit, observe, appendT, encode, decode time.Duration
	drains, absorbs, mines                   []time.Duration
	closes                                   []closeSpan

	observed, drained    int // flows
	scanned, suspicious  int
	txs, frequent, maxim int
	wireBytes, cloneOnly int64

	// excluded is the duplicate or benchmark-only work inside the
	// traced wall; failed counts intervals whose re-run inner calls
	// disagree with the report.
	excluded time.Duration
	failed   int
}

// observedBatch records one ObserveBatch and the mirrored flow-buffer
// append.
func (sp *spans) observedBatch(observe, appendT time.Duration, n int) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.observe += observe
	sp.appendT += appendT
	sp.excluded += appendT
	sp.observed += n
}

// closed records one EndInterval of coreClose and re-runs its
// extraction on buf, the interval's flows in pipeline order.
func (sp *spans) closed(coreClose time.Duration, rep *anomalyx.Report, buf *flow.Buffer, cfg anomalyx.Config) {
	t0 := time.Now()
	cs := closeSpan{close: coreClose}
	ok := true
	if rep.Alarm && rep.Detection.Meta.Count() > 0 {
		a := time.Now()
		susp := prefilter.FilterBufferParallel(cfg.Prefilter, rep.Detection.Meta, buf, cfg.Workers)
		b := time.Now()
		cs.prefilter = b.Sub(a)
		ok = len(susp) == rep.SuspiciousFlows
		sp.mu.Lock()
		sp.scanned += buf.Len()
		sp.suspicious += len(susp)
		sp.mu.Unlock()
		if len(susp) > 0 {
			txs := itemset.FromFlows(susp)
			c := time.Now()
			cs.itemset = c.Sub(b)
			res, err := cfg.Miner.Mine(txs, rep.MinSupport)
			cs.mine = time.Since(c)
			ok = ok && err == nil && reflect.DeepEqual(res.Maximal, rep.ItemSets)
			sp.mu.Lock()
			sp.txs += len(txs)
			sp.mines = append(sp.mines, cs.mine)
			if err == nil {
				sp.frequent += len(res.All)
				sp.maxim += len(res.Maximal)
			}
			sp.mu.Unlock()
		}
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.closes = append(sp.closes, cs)
	if !ok {
		sp.failed++
	}
	sp.excluded += time.Since(t0)
}

// lockstep lets a producer wait until a sink has consumed everything
// submitted so far, or has failed: a failed engine discards its input,
// so the wait would never end.
type lockstep struct {
	mu         sync.Mutex
	cond       sync.Cond
	recs, cuts int
	failed     bool
}

func newLockstep() *lockstep {
	l := &lockstep{}
	l.cond.L = &l.mu
	return l
}

func (l *lockstep) advance(recs, cuts int) {
	l.mu.Lock()
	l.recs += recs
	l.cuts += cuts
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *lockstep) fail() {
	l.mu.Lock()
	l.failed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *lockstep) wait(recs, cuts int) {
	l.mu.Lock()
	for !l.failed && (l.recs < recs || l.cuts < cuts) {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// tracedSink wraps a pipeline as an engine sink and times its calls.
type tracedSink struct {
	p      *anomalyx.Pipeline
	mirror flow.Buffer
	sp     *spans
	ls     *lockstep
}

func (s *tracedSink) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	t0 := time.Now()
	s.p.ObserveBatch(recs)
	t1 := time.Now()
	s.mirror.AppendRecords(recs)
	s.sp.observedBatch(t1.Sub(t0), time.Since(t1), len(recs))
	s.ls.advance(len(recs), 0)
}

func (s *tracedSink) EndInterval() (*anomalyx.Report, error) {
	t0 := time.Now()
	rep, err := s.p.EndInterval()
	d := time.Since(t0)
	if err != nil {
		s.ls.fail()
		return nil, err
	}
	s.sp.closed(d, rep, &s.mirror, s.p.Config())
	s.mirror.Reset()
	s.ls.advance(0, 1)
	return rep, nil
}

func (s *tracedSink) Close() { s.p.Close() }

// tracedResult is one traced pass; its spans went to the run's
// accumulator.
type tracedResult struct {
	elapsed time.Duration // wall time, excluded work included
	decode  time.Duration // time in Reader.Next (replay)
	reports []*anomalyx.Report
}

// stageSum is the sum of the layers' self times on the blocking path,
// decoding aside.
func (sp *spans) stageSum() time.Duration {
	t := sp.submit + sp.observe + sum(sp.drains) + sp.encode + sp.decode + sum(sp.absorbs)
	for _, c := range sp.closes {
		t += c.close
	}
	return t
}

// submitLockstep submits one batch and waits until the sink has
// consumed it, charging the call to the submit span.
func submitLockstep(eng *engine.Engine, ls *lockstep, sp *spans, batch []flow.Record, recs, cuts *int) error {
	t0 := time.Now()
	n, err := eng.SubmitBatch(batch)
	d := time.Since(t0)
	sp.mu.Lock()
	sp.submit += d
	sp.mu.Unlock()
	*recs += len(batch)
	*cuts += n
	ls.wait(*recs, *cuts)
	return err
}

// tracedEnginePass is the traced form of enginePass: one producer, one
// pipeline behind a synchronous engine.
func tracedEnginePass(src source, sp *spans) (*tracedResult, error) {
	runtime.GC()
	p, err := anomalyx.NewPipeline(anomalyx.Config{})
	if err != nil {
		return nil, err
	}
	ls := newLockstep()
	eng, err := engine.NewWithSink(engine.Config{}, &tracedSink{p: p, sp: sp, ls: ls})
	if err != nil {
		p.Close()
		return nil, err
	}
	res := &tracedResult{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			res.reports = append(res.reports, rep)
		}
	}()
	t0 := time.Now()
	var recs, cuts int
	var perr error
	for perr == nil {
		batch, _, err := src.next()
		if err != nil {
			perr = err
			break
		}
		if batch == nil {
			break
		}
		perr = submitLockstep(eng, ls, sp, batch, &recs, &cuts)
	}
	if err := eng.Close(); perr == nil {
		perr = err
	}
	<-done
	res.elapsed = time.Since(t0)
	res.decode = src.decodeTime()
	return res, perr
}

// tracedAgentSink is an agent's sink in the traced distributed pass: it
// drains each interval, encodes and decodes it in the wire format the
// agent ships, and hands the drained interval to the traced collector.
type tracedAgentSink struct {
	tracedSink
	id  int
	col *tracedCollector
	n   int
}

func (s *tracedAgentSink) EndIntervalAt(boundary int64) (rep *anomalyx.Report, err error) {
	defer func() {
		if err != nil {
			s.ls.fail()
		} else {
			s.ls.advance(0, 1)
		}
	}()
	s.mirror.Reset()
	x0 := time.Now()
	// The encoder takes the snapshot form; an agent pipeline never
	// closes detection, so its snapshot is the open interval alone.
	snap := s.p.Snapshot()
	x1 := time.Now()
	oi := s.p.DrainOpenInterval()
	x2 := time.Now()
	enc, err := anomalyx.EncodeOpenIntervalSnapshot(snap)
	if err != nil {
		return nil, err
	}
	x3 := time.Now()
	dec, err := anomalyx.DecodeOpenIntervalSnapshot(enc)
	if err != nil {
		return nil, err
	}
	x4 := time.Now()
	snap.Buffer = flow.Buffer{}
	cloneOnly, err := anomalyx.EncodeOpenIntervalSnapshot(snap)
	if err != nil {
		return nil, err
	}
	flows := oi.Buffer.Len()
	sp := s.sp
	sp.mu.Lock()
	sp.drains = append(sp.drains, x2.Sub(x1))
	sp.encode += x3.Sub(x2)
	sp.decode += x4.Sub(x3)
	sp.drained += flows
	sp.wireBytes += int64(len(enc))
	sp.cloneOnly += int64(len(cloneOnly))
	if dec.Buffer.Len() != flows {
		sp.failed++
	}
	sp.excluded += x1.Sub(x0) + time.Since(x4)
	sp.mu.Unlock()

	rep = &anomalyx.Report{Interval: s.n, TotalFlows: flows}
	s.n++
	if boundary != 0 {
		if err := s.col.deliver(s.id, boundary, oi); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// EndInterval is never called: the engine closes a BoundarySink's
// intervals with EndIntervalAt.
func (s *tracedAgentSink) EndInterval() (*anomalyx.Report, error) {
	return nil, fmt.Errorf("traced agent sink requires a boundary")
}

// tracedCollector merges the agents' drained intervals per boundary in
// agent-ID order and closes detection, as the wire collector does.
type tracedCollector struct {
	mu      sync.Mutex
	p       *anomalyx.Pipeline
	agents  int
	pending map[int64][]*core.OpenInterval
	mirror  flow.Buffer
	sp      *spans
	reports []*anomalyx.Report
}

func (c *tracedCollector) deliver(id int, boundary int64, oi core.OpenInterval) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := c.pending[boundary]
	if slot == nil {
		slot = make([]*core.OpenInterval, c.agents)
		c.pending[boundary] = slot
	}
	slot[id] = &oi
	for _, x := range slot {
		if x == nil {
			return nil
		}
	}
	delete(c.pending, boundary)
	for _, x := range slot {
		t0 := time.Now()
		err := c.p.AbsorbOpenInterval(*x)
		t1 := time.Now()
		c.mirror.AppendBuffer(&x.Buffer)
		c.sp.mu.Lock()
		c.sp.absorbs = append(c.sp.absorbs, t1.Sub(t0))
		c.sp.excluded += time.Since(t1)
		c.sp.mu.Unlock()
		if err != nil {
			return err
		}
	}
	t0 := time.Now()
	rep, err := c.p.EndInterval()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	c.sp.closed(d, rep, &c.mirror, c.p.Config())
	c.mirror.Reset()
	c.reports = append(c.reports, rep)
	return nil
}

// tracedDistributedPass is the traced form of distributedPass, with the
// agents' engines in this goroutine's lockstep and the wire replaced by
// an in-memory hand-off of the drained intervals, whose encoding and
// decoding are timed on the side.
func tracedDistributedPass(in *input, sp *spans) (*tracedResult, error) {
	runtime.GC()
	agents := len(in.parts)
	colP, err := anomalyx.NewPipeline(anomalyx.Config{})
	if err != nil {
		return nil, err
	}
	defer colP.Close()
	col := &tracedCollector{p: colP, agents: agents, pending: map[int64][]*core.OpenInterval{}, sp: sp}

	engs := make([]*engine.Engine, 0, agents)
	steps := make([]*lockstep, agents)
	var stubs sync.WaitGroup
	closeAll := func() error {
		var first error
		for _, e := range engs {
			if err := e.Close(); err != nil && first == nil {
				first = err
			}
		}
		stubs.Wait()
		return first
	}
	for a := 0; a < agents; a++ {
		p, err := anomalyx.NewPipeline(anomalyx.Config{})
		if err != nil {
			closeAll()
			return nil, err
		}
		steps[a] = newLockstep()
		eng, err := engine.NewWithSink(engine.Config{}, &tracedAgentSink{
			tracedSink: tracedSink{p: p, sp: sp, ls: steps[a]}, id: a, col: col})
		if err != nil {
			p.Close()
			closeAll()
			return nil, err
		}
		engs = append(engs, eng)
		stubs.Add(1)
		go func() {
			defer stubs.Done()
			for range eng.Reports() {
			}
		}()
	}

	t0 := time.Now()
	recs := make([]int, agents)
	cuts := make([]int, agents)
	var perr error
	for k := 0; k < len(in.parts[0]) && perr == nil; k++ {
		for a := 0; a < agents && perr == nil; a++ {
			iv := in.parts[a][k]
			for off := 0; off < len(iv) && perr == nil; off += batchSize {
				perr = submitLockstep(engs[a], steps[a], sp, iv[off:min(off+batchSize, len(iv))], &recs[a], &cuts[a])
			}
		}
	}
	if err := closeAll(); perr == nil {
		perr = err
	}
	return &tracedResult{elapsed: time.Since(t0), reports: col.reports}, perr
}
