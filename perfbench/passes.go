package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anomalyx"
	"anomalyx/internal/flow"
)

// batchSize is the producers' SubmitBatch size, the engine's default
// batch.
const batchSize = 512

// closedLoopBuffer bounds the engine input channel (in batches) on the
// closed-loop workloads. With the default 8192 the producer would queue
// the whole trace ahead of the engine, and latency and heap would
// measure how far it ran ahead; with 16 (~8 k records, under one
// interval) backpressure keeps it within a fraction of an interval.
const closedLoopBuffer = 16

// agentReplay bounds each agent's unacknowledged intervals on the
// distributed workload, for the same reason: with the default 64 the
// agents run ahead of the collector by whatever the loopback socket
// buffers hold (~15-20 intervals, varying run to run), and latency
// measures socket buffering. 8 keeps the default's throughput.
const agentReplay = 8

// usage is a snapshot of the process counters a pass is charged with.
type usage struct {
	cpu   time.Duration // user + system CPU of the whole process
	alloc uint64        // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: s[0].Value.Uint64(),
	}
}

// passResult is what one pass of a workload measured. Times are offsets
// from the pass's start.
type passResult struct {
	setup     time.Duration // building the system until the first batch is accepted
	flows     int
	wall      time.Duration // first submit to last report
	cpu       time.Duration
	alloc     uint64
	peakHeap  uint64
	latencies []time.Duration // per interval, in interval order
	reports   []*anomalyx.Report
	// submits and boundarySubmits time every SubmitBatch call, and
	// those that closed at least one interval.
	submits, boundarySubmits []time.Duration
	lags                     []time.Duration
	backlog                  []int
	connBytes                int64
}

// reportLog records each report with its arrival time and samples the
// heap there. One goroutine calls add.
type reportLog struct {
	base      time.Time
	reports   []*anomalyx.Report
	at        []time.Duration
	peak      uint64
	heap      []metrics.Sample
	submitted *atomic.Int64 // records submitted so far; nil to skip backlog
	reported  int
	backlog   []int
}

func newReportLog(base time.Time, submitted *atomic.Int64) *reportLog {
	return &reportLog{
		base:      base,
		heap:      []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
		submitted: submitted,
	}
}

func (l *reportLog) add(rep *anomalyx.Report) {
	l.at = append(l.at, time.Since(l.base))
	l.reports = append(l.reports, rep)
	metrics.Read(l.heap)
	if v := l.heap[0].Value.Uint64(); v > l.peak {
		l.peak = v
	}
	if l.submitted != nil {
		l.reported += rep.TotalFlows
		l.backlog = append(l.backlog, int(l.submitted.Load())-l.reported)
	}
}

// producer submits batches to one engine and records, for every
// interval the engine closed, when the record past its boundary was
// due.
type producer struct {
	eng       *anomalyx.Engine
	submitted *atomic.Int64
	cuts      []time.Duration
	submits   []time.Duration
	boundary  []time.Duration
	err       error
}

func (p *producer) submit(batch []flow.Record, due time.Duration) {
	t0 := time.Now()
	n, err := p.eng.SubmitBatch(batch)
	d := time.Since(t0)
	p.submits = append(p.submits, d)
	if n > 0 {
		p.boundary = append(p.boundary, d)
	}
	for i := 0; i < n; i++ {
		p.cuts = append(p.cuts, due)
	}
	if p.submitted != nil {
		p.submitted.Add(int64(len(batch)))
	}
	if err != nil && p.err == nil {
		p.err = err
	}
}

// source yields a workload's batches in order, each with the offset
// from the producer's start at which it is due. paced sources are
// open-loop: the producer waits until a batch is due. next returns a
// nil batch at the end of the stream; the batch is valid until the
// next call.
type source interface {
	next() (batch []flow.Record, due time.Duration, err error)
	end() time.Duration // when the end of the stream is due
	paced() bool
	decodeTime() time.Duration
}

// v5Source decodes the replay trace with netflow.Reader into batches
// and times the decoding.
type v5Source struct {
	rd     *anomalyx.FlowReader
	batch  []flow.Record
	decode time.Duration
}

func newV5Source(in *input) *v5Source {
	return &v5Source{
		rd:    anomalyx.NewFlowReader(in.v5Reader()),
		batch: make([]flow.Record, 0, batchSize),
	}
}

func (s *v5Source) next() ([]flow.Record, time.Duration, error) {
	t0 := time.Now()
	s.batch = s.batch[:0]
	for len(s.batch) < batchSize {
		rec, err := s.rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("decoding trace: %w", err)
		}
		s.batch = append(s.batch, rec)
	}
	s.decode += time.Since(t0)
	if len(s.batch) == 0 {
		return nil, 0, nil
	}
	return s.batch, 0, nil
}

func (s *v5Source) end() time.Duration        { return 0 }
func (s *v5Source) paced() bool               { return false }
func (s *v5Source) decodeTime() time.Duration { return s.decode }

// sliceSource cuts in-memory intervals into batches that never span an
// interval boundary, so the first record past each boundary starts a
// batch. With a rate it schedules record i at i/rate seconds.
type sliceSource struct {
	intervals [][]flow.Record
	rate      float64 // flows per second; 0 for a closed loop
	idx, off  int
	sent      int
}

func (s *sliceSource) next() ([]flow.Record, time.Duration, error) {
	for s.idx < len(s.intervals) && s.off >= len(s.intervals[s.idx]) {
		s.idx++
		s.off = 0
	}
	if s.idx >= len(s.intervals) {
		return nil, 0, nil
	}
	recs := s.intervals[s.idx]
	hi := min(s.off+batchSize, len(recs))
	batch := recs[s.off:hi]
	due := s.dueAt(s.sent)
	s.off = hi
	s.sent += len(batch)
	return batch, due, nil
}

func (s *sliceSource) dueAt(i int) time.Duration {
	if s.rate <= 0 {
		return 0
	}
	return time.Duration(float64(i) / s.rate * float64(time.Second))
}

func (s *sliceSource) end() time.Duration        { return s.dueAt(s.sent) }
func (s *sliceSource) paced() bool               { return s.rate > 0 }
func (s *sliceSource) decodeTime() time.Duration { return 0 }

// enginePass runs one producer through a facade engine: it builds the
// engine, feeds src (pacing it when src is open-loop), closes the
// engine and collects the reports. With setupOnly it stops after the
// first batch, to sample set-up time alone.
func enginePass(cfg anomalyx.EngineConfig, src source, setupOnly bool) (*passResult, error) {
	runtime.GC()
	var submitted atomic.Int64
	u0 := readUsage()
	t0 := time.Now()
	eng, err := anomalyx.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	log := newReportLog(t0, &submitted)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range eng.Reports() {
			log.add(rep)
		}
	}()
	pr := &producer{eng: eng, submitted: &submitted}
	r := &passResult{}
	var start time.Duration
	var srcErr error
	for first := true; ; first = false {
		batch, due, err := src.next()
		if err != nil {
			srcErr = err
			break
		}
		if batch == nil {
			break
		}
		if first {
			start = time.Since(t0)
		}
		// Open loop: latency counts from when the batch was due, so a late
		// send is charged to it. Closed loop: from when it was sent.
		at := start + due
		if src.paced() {
			waitUntil(t0, at, &r.lags)
		} else {
			at = time.Since(t0)
		}
		r.flows += len(batch)
		pr.submit(batch, at)
		if first {
			r.setup = time.Since(t0)
			if setupOnly {
				break
			}
		}
	}
	closeAt := time.Since(t0)
	if src.paced() && !setupOnly {
		closeAt = start + src.end()
		waitUntil(t0, closeAt, &r.lags)
	}
	cerr := eng.Close()
	<-done
	if srcErr != nil {
		return nil, srcErr
	}
	u1 := readUsage()
	if cerr == nil {
		cerr = pr.err
	}
	if cerr != nil {
		// A failed engine leaves its remaining intervals unreported; the
		// caller counts them as failed against the reference.
		fmt.Printf("# engine error: %v\n", cerr)
	}
	r.cpu, r.alloc = u1.cpu-u0.cpu, u1.alloc-u0.alloc
	r.peakHeap = log.peak
	r.reports = log.reports
	r.backlog = log.backlog
	r.submits, r.boundarySubmits = pr.submits, pr.boundary
	if n := len(log.at); n > 0 {
		r.wall = log.at[n-1] - start
	}
	r.latencies = latencies(log.at, [][]time.Duration{pr.cuts}, []time.Duration{closeAt})
	return r, nil
}

// waitUntil sleeps until offset due from base and records how late it
// woke. It sleeps in the nanosleep system call rather than time.Sleep:
// while the process idles, the Go scheduler waits for timers with
// millisecond granularity, which would add up to a millisecond of timer
// noise to every send and so to every latency.
func waitUntil(base time.Time, due time.Duration, lags *[]time.Duration) {
	for d := due - time.Since(base); d > 0; d = due - time.Since(base) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // on EINTR the loop re-reads the clock
	}
	*lags = append(*lags, time.Since(base)-due)
}

// latencies pairs each report's arrival with when its interval's
// closing record was due: the latest, over producers, of the record
// past the boundary, or of the close of the stream for the final
// interval.
func latencies(at []time.Duration, cuts [][]time.Duration, closes []time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(at))
	for k, a := range at {
		var due time.Duration
		for p := range cuts {
			d := closes[p]
			if k < len(cuts[p]) {
				d = cuts[p][k]
			}
			due = max(due, d)
		}
		out = append(out, a-due)
	}
	return out
}

// countingListener counts the bytes read on every accepted connection:
// the collector's inbound wire traffic.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// distributedPass runs len(in.parts) agent sessions, one producer each,
// shipping over loopback TCP to one collector in this process.
func distributedPass(in *input, setupOnly bool) (*passResult, error) {
	runtime.GC()
	agents := len(in.parts)
	u0 := readUsage()
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl := &countingListener{Listener: ln}
	col, err := anomalyx.NewCollectorWithConfig(anomalyx.Config{}, anomalyx.CollectorConfig{Agents: agents})
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer col.Close()
	log := newReportLog(t0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- col.Serve(ctx, cl, func(rep *anomalyx.Report) error {
			log.add(rep)
			return nil
		})
	}()

	sessions := make([]*anomalyx.AgentSession, 0, agents)
	var stubs sync.WaitGroup
	teardown := func() error {
		var first error
		for _, s := range sessions {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		stubs.Wait()
		if len(sessions) < agents {
			cancel() // the collector would wait for agents that never came
		}
		if err := <-served; err != nil && first == nil && err != context.Canceled {
			first = err
		}
		return first
	}
	for a := 0; a < agents; a++ {
		s, err := anomalyx.NewAgent(anomalyx.EngineConfig{Buffer: closedLoopBuffer},
			anomalyx.AgentConfig{Addr: ln.Addr().String(), AgentID: a, Shards: 1, ReplayBuffer: agentReplay})
		if err != nil {
			_ = teardown() // the dial error is the one to report
			return nil, fmt.Errorf("agent %d: %w", a, err)
		}
		sessions = append(sessions, s)
		// The agent engine emits local stub reports; drain them so its
		// report channel never fills.
		stubs.Add(1)
		go func() {
			defer stubs.Done()
			for range s.Reports() {
			}
		}()
	}

	r := &passResult{}
	prods := make([]*producer, agents)
	srcs := make([]*sliceSource, agents)
	for a := range prods {
		prods[a] = &producer{eng: sessions[a].Engine}
		srcs[a] = &sliceSource{intervals: in.parts[a]}
	}
	// The first batch of every agent is part of set-up. A sliceSource
	// never fails, so its error is dropped here and below.
	start := time.Since(t0)
	for a, p := range prods {
		batch, _, _ := srcs[a].next()
		r.flows += len(batch)
		p.submit(batch, time.Since(t0))
	}
	r.setup = time.Since(t0)
	closes := make([]time.Duration, agents)
	if !setupOnly {
		var wg sync.WaitGroup
		flows := make([]int, agents)
		for a := range prods {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for {
					batch, _, _ := srcs[a].next()
					if batch == nil {
						break
					}
					flows[a] += len(batch)
					prods[a].submit(batch, time.Since(t0))
				}
				closes[a] = time.Since(t0)
			}(a)
		}
		wg.Wait()
		for _, n := range flows {
			r.flows += n
		}
	}
	if err := teardown(); err != nil {
		fmt.Printf("# distributed error: %v\n", err)
	}
	u1 := readUsage()
	r.cpu, r.alloc = u1.cpu-u0.cpu, u1.alloc-u0.alloc
	r.peakHeap = log.peak
	r.reports = log.reports
	r.connBytes = cl.n.Load()
	cuts := make([][]time.Duration, agents)
	for a, p := range prods {
		cuts[a] = p.cuts
		r.submits = append(r.submits, p.submits...)
		r.boundarySubmits = append(r.boundarySubmits, p.boundary...)
		if p.err != nil {
			fmt.Printf("# agent %d error: %v\n", a, p.err)
		}
	}
	if n := len(log.at); n > 0 {
		r.wall = log.at[n-1] - start
	}
	r.latencies = latencies(log.at, cuts, closes)
	return r, nil
}
