package core

import (
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// PipelineSnapshot is the exported state of a Pipeline: the detector
// bank's full state plus the current interval's buffered flows in
// columnar form. Restoring it into a pipeline built from the same
// Config reproduces the original exactly — subsequent reports are
// byte-identical — which is the invariant the wire codec's round-trip
// tests pin down. Like the bank and histogram snapshots it carries
// state only; configuration matching is the caller's contract (the wire
// handshake digests it).
type PipelineSnapshot struct {
	Bank   detector.BankSnapshot
	Buffer flow.Buffer
}

// OpenInterval is the lean drain of a pipeline's open interval: the
// clone-histogram snapshots (one slice per detector in feature order,
// as detector.Bank.DrainInterval returns them) plus the columnar flow
// buffer — and nothing else. It is PipelineSnapshot minus the detection
// history, which on the distributed agent path is dead weight: an agent
// never closes detection, so its reference counts, KL series, and
// threshold samples are permanently zero. The collector absorbs an
// OpenInterval additively (AbsorbOpenInterval), so the
// drain/ship/absorb cycle never touches history on either side.
type OpenInterval struct {
	Clones [][]histogram.Snapshot
	Buffer flow.Buffer
}

// Snapshot captures the pipeline's full state: bank history plus the
// open interval's flow buffer. The result shares no memory with the
// pipeline.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PipelineSnapshot{
		Bank:   p.bank.Snapshot(),
		Buffer: p.buffer.Clone(),
	}
}

// RestoreSnapshot replaces the pipeline's state with s. The pipeline
// must share the snapshot source's configuration (features, detector
// parameters).
func (p *Pipeline) RestoreSnapshot(s PipelineSnapshot) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.bank.RestoreSnapshot(s.Bank); err != nil {
		return err
	}
	p.buffer.Reset()
	p.buffer.AppendBuffer(&s.Buffer)
	return nil
}

// DrainOpenInterval captures the open interval — clone-histogram
// snapshots and the flow buffer — and clears it, leaving detection
// history untouched and uncopied. This is the distributed agent step:
// the agent drains at each interval boundary and ships the result to
// the collector, which folds it into the primary pipeline with
// AbsorbOpenInterval. The result shares no memory with the pipeline.
// It is the one-pipeline case of DrainOpenIntervalGroup.
func (p *Pipeline) DrainOpenInterval() OpenInterval {
	oi, _ := DrainOpenIntervalGroup(p.selfGroup) // a one-pipeline group always validates
	return oi
}

// DrainOpenIntervalGroup drains one open interval in lockstep across a
// group of shard pipelines: the siblings' clone sets merge into the
// primary's (mergeSiblings, as in the interval close), the merged sets
// are drained, and the flow buffers concatenate in group order. Every member is left empty, ready for the next interval; no
// detection runs. This is the agent's close when it runs a locally
// sharded pipeline: the collector receives one open interval equal to
// an unsharded pipeline's over the same flows, up to the buffer's
// row order. Every pipeline must share the detector configuration.
func DrainOpenIntervalGroup(group []*Pipeline) (OpenInterval, error) {
	if err := checkGroup(group); err != nil {
		return OpenInterval{}, err
	}
	for _, p := range group {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	sets := make([][][]*histogram.Histogram, len(group))
	for i, p := range group {
		sets[i] = p.bank.LiveInterval()
	}
	mergeSiblings(group[0].bank, sets)
	oi := OpenInterval{Clones: group[0].bank.DrainInterval()}
	n := 0
	for _, p := range group {
		n += p.buffer.Len()
	}
	oi.Buffer.Grow(n)
	for _, p := range group {
		oi.Buffer.AppendBuffer(p.buffer)
		p.buffer.Reset()
	}
	return oi, nil
}

// AbsorbOpenInterval folds a drained open interval into p additively:
// clone snapshots merge into the bank's open histograms (the
// mergeable-sketch invariant — identical to having observed the flows
// directly) and the buffered flows append to p's buffer. It is the
// collector-side counterpart of DrainOpenInterval. Both sides must
// share the detector configuration and seed.
func (p *Pipeline) AbsorbOpenInterval(oi OpenInterval) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.bank.AbsorbInterval(oi.Clones); err != nil {
		return err
	}
	p.buffer.AppendBuffer(&oi.Buffer)
	return nil
}
