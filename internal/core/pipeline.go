// Package core assembles the paper's end-to-end anomaly-extraction
// pipeline (Fig. 3): histogram-based detectors monitor per-feature flow
// distributions online; on an alarm, the union of the detectors' voted
// meta-data prefilters the interval's flows to a suspicious set, and
// frequent item-set mining summarizes the suspicious set into the maximal
// item-sets an operator inspects.
//
// Determinism: a pipeline's reports are byte-identical for the same
// input regardless of Workers, sharding, or agent/collector topology —
// per-shard suspicious sets concatenate in shard order, report fields
// are sorted at the boundary, and mining is order-insensitive (see
// docs/ARCHITECTURE.md "The determinism contract").
package core

import (
	"fmt"
	"slices"
	"sync"

	"anomalyx/internal/cost"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/prefilter"
)

// Config carries the pipeline parameters (Table III).
type Config struct {
	// Features lists the monitored traffic features (default: the
	// paper's five — srcIP, dstIP, srcPort, dstPort, packets).
	Features []flow.FeatureKind
	// Detector is the per-feature detector template (bins k, clones n,
	// votes l, threshold multiplier alpha, training window).
	Detector detector.Config
	// MinSupport is the absolute Apriori minimum support s. When 0,
	// RelativeSupport applies.
	MinSupport int
	// RelativeSupport expresses s as a fraction of the suspicious-flow
	// count; the paper's guidance is 1–10% of the input flows (§II-E).
	// Default 0.05.
	RelativeSupport float64
	// Miner is the frequent item-set algorithm (default: the modified
	// Apriori of §II-B).
	Miner mining.Miner
	// Prefilter selects the suspicious flows from the meta-data
	// (default: union, the paper's choice).
	Prefilter prefilter.Strategy
	// KeepSuspicious retains the suspicious flows in each report (for
	// forensics and tests; costs memory on big intervals).
	KeepSuspicious bool
	// QuantizeSizes buckets the packets and bytes items to powers of two
	// before mining (§V's quantitative-features extension): flow-size
	// anomalies with slightly varying sizes then aggregate into one
	// item-set instead of fragmenting below the minimum support.
	QuantizeSizes bool
	// Workers bounds the detector bank's worker pool for ObserveBatch
	// and EndInterval, and the chunked parallel prefilter scan of the
	// extraction stage. 0 means GOMAXPROCS — resolved when the bank's
	// pool is created at construction, and at call time for the
	// prefilter scan; 1 forces the sequential path. The parallel paths
	// produce reports byte-identical to the sequential ones.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.RelativeSupport == 0 {
		c.RelativeSupport = 0.05
	}
	if c.Miner == nil {
		c.Miner = apriori.New()
	}
	if c.Prefilter == nil {
		c.Prefilter = prefilter.Union{}
	}
	return c
}

// Report is the outcome of one measurement interval.
type Report struct {
	Interval int
	// Detection is the raw detector-bank outcome, including per-clone
	// KL distances and the voted meta-data.
	Detection detector.BankResult
	// Alarm mirrors Detection.Alarm.
	Alarm bool
	// TotalFlows is the interval's flow count; SuspiciousFlows the
	// prefiltered count (0 unless Alarm).
	TotalFlows      int
	SuspiciousFlows int
	// MinSupport is the absolute support used for mining this interval.
	MinSupport int
	// Mining holds the full mining result; ItemSets the maximal
	// item-sets (the operator-facing summary). Both nil/empty unless
	// Alarm.
	Mining   *mining.Result
	ItemSets []itemset.Set
	// CostReduction is R = TotalFlows / len(ItemSets) (§III-F); +Inf
	// when mining returned nothing, 0 when there was no alarm.
	CostReduction float64
	// Suspicious holds the prefiltered flows when KeepSuspicious is set.
	Suspicious []flow.Record
	// Partial lists, sorted ascending, the agent IDs a distributed
	// collector closed this interval without (their connections were
	// down and their frames never arrived). Nil for local runs and for
	// distributed intervals that merged every agent — the byte-identical
	// determinism guarantee applies exactly to reports with a nil
	// Partial.
	Partial []int
}

// Pipeline is the online anomaly-extraction engine. Feed flows with
// Observe or ObserveBatch and close intervals with EndInterval. It is
// safe for concurrent use: observes may run from multiple goroutines and
// EndInterval linearizes the interval boundary, though callers that need
// a well-defined flow-to-interval assignment must still serialize
// observes against interval closes themselves (the engine package does).
type Pipeline struct {
	cfg  Config
	bank *detector.Bank

	mu sync.Mutex
	// buffer holds the open interval's flows in columnar (SoA) form; see
	// flow.Buffer. Rows append in observation order, and every consumer —
	// prefilter scan, snapshot, wire encode — walks it column-wise. The
	// pipelined close swaps it for a recycled one.
	buffer *flow.Buffer

	// selfGroup is the single-element group the per-pipeline close and
	// drain entry points run, built once so they allocate no group.
	selfGroup []*Pipeline

	// spares is the freelist of reset interval states (clone histograms +
	// flow buffers) cycled through pipelined closes; spareMu guards it
	// because Finish recycles from the close worker while BeginClose pops
	// from the ingest goroutine.
	spareMu sync.Mutex
	spares  []intervalState
}

// New builds a pipeline from cfg.
func New(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if cfg.MinSupport < 0 {
		return nil, fmt.Errorf("core: negative minimum support %d", cfg.MinSupport)
	}
	if cfg.MinSupport == 0 && (cfg.RelativeSupport <= 0 || cfg.RelativeSupport > 1) {
		return nil, fmt.Errorf("core: relative support %v out of (0,1]", cfg.RelativeSupport)
	}
	bank, err := detector.NewBank(detector.BankConfig{
		Features: cfg.Features,
		Template: cfg.Detector,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg, bank: bank, buffer: new(flow.Buffer)}
	p.selfGroup = []*Pipeline{p}
	return p, nil
}

// Config returns the pipeline's effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Observe feeds one flow of the current interval.
func (p *Pipeline) Observe(rec flow.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buffer.Append(rec)
	p.bank.Observe(&rec)
}

// ObserveBatch feeds a batch of flows of the current interval. It
// amortizes per-record overhead and fans the detector-bank updates out
// over the configured worker pool; the resulting detector state is
// identical to observing each record with Observe.
func (p *Pipeline) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buffer.AppendRecords(recs)
	p.bank.ObserveBatch(recs)
}

// EndInterval closes the current interval: runs detection and, on an
// alarm, extraction (prefilter + mining). The flow buffer is cleared.
func (p *Pipeline) EndInterval() (*Report, error) {
	return EndIntervalGroup(p.selfGroup)
}

// Close releases the detector bank's worker pool. It is idempotent. The
// pipeline must not observe flows or close intervals after Close.
func (p *Pipeline) Close() { p.bank.Close() }

// ProcessInterval is the batch convenience: ObserveBatch all recs, then
// EndInterval.
func (p *Pipeline) ProcessInterval(recs []flow.Record) (*Report, error) {
	p.ObserveBatch(recs)
	return p.EndInterval()
}

// finishExtract populates rep's extraction fields from an
// already-prefiltered suspicious set: counts, resolved minimum support,
// mining result, maximal item-sets, and cost reduction. Both extraction
// entry points — the interval close and the offline post-mortem —
// funnel through here so their reports stay field-for-field comparable.
func finishExtract(cfg Config, rep *Report, suspicious []flow.Record) error {
	rep.SuspiciousFlows = len(suspicious)
	if cfg.KeepSuspicious {
		rep.Suspicious = suspicious
	}
	if len(suspicious) == 0 {
		rep.CostReduction = cost.Reduction(rep.TotalFlows, 0)
		return nil
	}
	minsup := supportFor(cfg, len(suspicious))
	rep.MinSupport = minsup

	txs := itemset.FromFlows(suspicious)
	if cfg.QuantizeSizes {
		txs = itemset.QuantizeAll(txs, itemset.SizeKinds...)
	}
	res, err := cfg.Miner.Mine(txs, minsup)
	if err != nil {
		return fmt.Errorf("core: mining interval %d: %w", rep.Interval, err)
	}
	rep.Mining = res
	rep.ItemSets = res.Maximal
	rep.CostReduction = cost.Reduction(rep.TotalFlows, len(rep.ItemSets))
	return nil
}

// supportFor resolves the absolute minimum support for a suspicious-flow
// count.
func supportFor(cfg Config, suspicious int) int {
	if cfg.MinSupport > 0 {
		return cfg.MinSupport
	}
	s := int(cfg.RelativeSupport * float64(suspicious))
	if s < 1 {
		s = 1
	}
	return s
}

// ExtractOffline runs the extraction stage alone — the post-mortem mode
// of §II: given an interval's flows and the alarm meta-data an operator
// wants to investigate, prefilter and mine without touching detector
// state. Like the online path it fans the prefilter scan out over
// cfg.Workers chunks with output identical to a sequential scan.
func ExtractOffline(cfg Config, recs []flow.Record, meta detector.MetaData) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{TotalFlows: len(recs), Alarm: true}
	suspicious := prefilter.FilterParallel(cfg.Prefilter, meta, recs, cfg.Workers)
	if err := finishExtract(cfg, rep, suspicious); err != nil {
		return nil, err
	}
	return rep, nil
}

// EndIntervalGroup closes one measurement interval in lockstep across a
// group of shard pipelines: closeInterval over every member's live
// clone sets and flow buffer, with all members locked. The primary
// (first) pipeline owns detection history; on an alarm every shard
// prefilters its own buffer, so buffers never leave their shard. Every
// pipeline must share the detector configuration; the pipelines must
// not observe flows concurrently with the group close (the shard
// package serializes this). The report is byte-identical to a single
// pipeline having observed the whole stream — only the KeepSuspicious
// forensic slice regroups by shard. A one-pipeline group is
// Pipeline.EndInterval.
func EndIntervalGroup(group []*Pipeline) (*Report, error) {
	if err := checkGroup(group); err != nil {
		return nil, err
	}
	// Lock in group order; groups fan in toward one primary, so no lock
	// cycle can form.
	for _, p := range group {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	states := make([]intervalState, len(group))
	for i, p := range group {
		states[i] = intervalState{clones: p.bank.LiveInterval(), buffer: p.buffer}
	}
	return closeInterval(group, states)
}

// checkGroup validates a close or drain group: non-empty, no pipeline
// twice (locking one twice would self-deadlock instead of erroring), and
// one detector configuration throughout (histogram clones merge only
// across equal seeds and bin counts).
func checkGroup(group []*Pipeline) error {
	if len(group) == 0 {
		return fmt.Errorf("core: empty pipeline group")
	}
	primary := group[0].bank.Detectors()
	for i, p := range group {
		for _, q := range group[i+1:] {
			if p == q {
				return fmt.Errorf("core: duplicate pipeline in group")
			}
		}
		if !slices.EqualFunc(p.bank.Detectors(), primary, func(a, b *detector.Detector) bool {
			return a.Config() == b.Config()
		}) {
			return fmt.Errorf("core: pipeline %d of the group has a different detector configuration", i)
		}
	}
	return nil
}

// closeInterval is the interval close — the one implementation behind
// both close paths:
//
//  1. the siblings' clone sets merge into the primary's (mergeSiblings);
//  2. detection closes over the merged sets against the primary bank's
//     history (Bank.FinishInterval, which resets the primary's sets);
//  3. on an alarm every member's buffer is prefiltered concurrently and
//     the suspicious sets concatenate in group order before one mining
//     pass (finishExtract);
//  4. every buffer is reset.
//
// states[i] is group[i]'s share of the interval. The synchronous close
// (EndIntervalGroup) passes the live state under the members' locks;
// the pipelined close (PendingClose.Finish) passes drained state and
// then recycles it.
func closeInterval(group []*Pipeline, states []intervalState) (*Report, error) {
	primary := group[0]
	sets := make([][][]*histogram.Histogram, len(states))
	for i, st := range states {
		sets[i] = st.clones
	}
	mergeSiblings(primary.bank, sets)
	det := primary.bank.FinishInterval(sets[0])
	rep := &Report{
		Interval:  det.Interval,
		Detection: det,
		Alarm:     det.Alarm,
	}
	for _, st := range states {
		rep.TotalFlows += st.buffer.Len()
	}
	var err error
	if det.Alarm && det.Meta.Count() > 0 {
		err = finishExtract(primary.cfg, rep, prefilterGroup(group, states, det.Meta))
	}
	for _, st := range states {
		st.buffer.Reset()
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// mergeSiblings is the cross-shard merge of a close or drain: it folds
// the siblings' clone sets (sets[1:], one per group member after the
// primary) into the primary's (sets[0]) in group order with
// Bank.MergeDrained — exact mergeable sketches, one task per detector —
// and then resets the siblings' histograms, keeping their value-table
// arenas for the next interval.
func mergeSiblings(bank *detector.Bank, sets [][][]*histogram.Histogram) {
	if len(sets) < 2 {
		return
	}
	bank.MergeDrained(sets[0], sets[1:])
	for _, sib := range sets[1:] {
		for _, set := range sib {
			for _, h := range set {
				h.Reset()
			}
		}
	}
}

// prefilterGroup selects the suspicious flows of every member's buffer —
// one goroutine per non-empty buffer, each fanning further out over its
// pipeline's Workers — and concatenates them in group order: the flows
// one scan of the merged buffer would select, in the same order.
func prefilterGroup(group []*Pipeline, states []intervalState, meta detector.MetaData) []flow.Record {
	parts := make([][]flow.Record, len(states))
	var wg sync.WaitGroup
	for i := range states {
		if states[i].buffer.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := group[i].cfg
			parts[i] = prefilter.FilterBufferParallel(cfg.Prefilter, meta, states[i].buffer, cfg.Workers)
		}(i)
	}
	wg.Wait()
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	// Keep the no-match case nil, as the sequential Filter returns it.
	if n == 0 {
		return nil
	}
	suspicious := make([]flow.Record, 0, n)
	for _, part := range parts {
		suspicious = append(suspicious, part...)
	}
	return suspicious
}
