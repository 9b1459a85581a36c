package core

import (
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// intervalState is one pipeline's share of an interval being closed:
// the detector bank's clone histograms and the columnar flow buffer.
// The synchronous close passes the pipeline's live state; the pipelined
// close passes state drained into reusable containers. After a close
// the histograms are reset (their value-table arenas intact) and the
// buffer's columns keep their capacity, so drained state cycles through
// the pipeline's freelist and steady-state closes allocate no new
// buffer or arena memory.
type intervalState struct {
	clones [][]*histogram.Histogram
	buffer *flow.Buffer
}

// popSpare takes a recycled interval state off p's freelist, or a
// fresh one (clone sets nil, for SwapInterval to allocate) when it is
// empty.
func (p *Pipeline) popSpare() intervalState {
	p.spareMu.Lock()
	defer p.spareMu.Unlock()
	if n := len(p.spares); n > 0 {
		st := p.spares[n-1]
		p.spares[n-1] = intervalState{}
		p.spares = p.spares[:n-1]
		return st
	}
	return intervalState{buffer: new(flow.Buffer)}
}

// pushSpare returns a reset interval state to p's freelist.
func (p *Pipeline) pushSpare(st intervalState) {
	p.spareMu.Lock()
	defer p.spareMu.Unlock()
	p.spares = append(p.spares, st)
}

// PendingClose is one drained measurement interval awaiting its finish:
// the cheap synchronous half of a pipelined interval close. BeginClose /
// BeginIntervalGroup swap the open interval's state (clone histograms +
// flow buffer) out of the hot path and return it here; Finish runs the
// expensive half — detection, prefilter, mining — against the drained
// state while new records flow into the swapped-in replacements.
//
// Each PendingClose must be finished exactly once, and finishes of
// successive closes over the same pipelines must run in begin order: the
// detector's KL scheme is sequential (each interval is compared against
// the previous one), so the engine serializes finishes on a single
// close-worker goroutine. Reordering would change reports; ordering
// makes them byte-identical to the synchronous path.
type PendingClose struct {
	group  []*Pipeline
	states []intervalState
}

// BeginClose drains p's open interval — atomically with respect to
// observes — and returns it as a PendingClose whose Finish produces
// exactly the report EndInterval would have. The drain is cheap:
// pointer swaps plus a freelist pop, no detection math.
func (p *Pipeline) BeginClose() (*PendingClose, error) {
	return BeginIntervalGroup(p.selfGroup)
}

// BeginIntervalGroup drains one measurement interval in lockstep across
// a group of shard pipelines — the pipelined counterpart of
// EndIntervalGroup. Every shard's clone histograms and flow buffer are
// swapped for reset recycled ones under the shard's lock; Finish runs
// the close later. Every pipeline must share the detector
// configuration, and the pipelines must not observe flows concurrently
// with the drain of the same boundary (the shard package serializes
// this).
func BeginIntervalGroup(group []*Pipeline) (*PendingClose, error) {
	if err := checkGroup(group); err != nil {
		return nil, err
	}
	pc := &PendingClose{group: group, states: make([]intervalState, len(group))}
	for i, p := range group {
		p.mu.Lock()
		st := p.popSpare()
		st.clones = p.bank.SwapInterval(st.clones)
		st.buffer, p.buffer = p.buffer, st.buffer
		pc.states[i] = st
		p.mu.Unlock()
	}
	return pc, nil
}

// Finish completes a drained interval close: closeInterval over the
// drained state — the same merge, detection and extraction as the
// synchronous close, so the report is byte-identical to it — then
// recycles the reset containers onto their pipelines' freelists.
//
// Finish never touches the pipelines' live state (buffers, current
// histograms), so it may run concurrently with observes; it does touch
// the primary bank's detection history, so Finish calls for successive
// closes must be serialized in begin order.
func (pc *PendingClose) Finish() (*Report, error) {
	rep, err := closeInterval(pc.group, pc.states)
	for i := range pc.states {
		pc.group[i].pushSpare(pc.states[i])
		pc.states[i] = intervalState{}
	}
	return rep, err
}
