package detector

import (
	"runtime"
	"sync"

	"anomalyx/internal/flow"
	"anomalyx/internal/histogram"
)

// BankConfig parameterizes a bank of per-feature detectors — the "d
// histogram-based detectors" of §II (default: the five features of
// §II-E).
type BankConfig struct {
	// Features lists the monitored features; defaults to the paper's
	// five (srcIP, dstIP, srcPort, dstPort, packets).
	Features []flow.FeatureKind
	// Workers sizes the bank's persistent worker pool. NewBank spawns
	// the pool goroutines once — they live for the bank's lifetime, fed
	// by a task channel, and are shut down by Close — so ObserveBatch and
	// EndInterval pay no per-call spawn cost. 0 means GOMAXPROCS at
	// construction time; 1 keeps the bank fully sequential (no pool
	// goroutines at all).
	Workers int
	// Template provides the shared per-detector parameters; its Feature
	// field is overwritten per detector.
	Template Config
}

// Bank runs one detector per traffic feature and consolidates their
// alarm meta-data by union (Fig. 3). Its methods are safe for concurrent
// use: observes and interval closes are linearized by an internal mutex,
// while the batch work itself fans out over the persistent worker pool.
// Call Close when done with a pooled bank to release its goroutines; a
// closed bank must not observe further batches.
type Bank struct {
	mu        sync.Mutex
	detectors []*Detector
	units     []cloneUnit // the (detector, clone) fan-out tasks, fixed at construction
	workers   int

	// tasks feeds the persistent pool; nil when workers == 1 (sequential
	// bank, no goroutines).
	tasks     chan func()
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

// minParallelBatch is the batch size below which the pool's handoff and
// wait overhead exceeds the win and ObserveBatch stays sequential.
const minParallelBatch = 256

// cloneUnit is one schedulable unit of batch work: a single histogram
// clone of a single feature detector.
type cloneUnit struct {
	d     *Detector
	clone int
}

// BankResult is the outcome of one interval across all features.
type BankResult struct {
	Interval int
	// Alarm is true when any feature detector alarmed.
	Alarm bool
	// PerFeature holds each detector's result, in Features order.
	PerFeature []Result
	// Meta is the union of the voted feature values across features —
	// the prefilter input.
	Meta MetaData
}

// NewBank builds one detector per feature and starts the worker pool.
func NewBank(cfg BankConfig) (*Bank, error) {
	feats := cfg.Features
	if len(feats) == 0 {
		feats = flow.DetectorFeatures[:]
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Bank{workers: workers}
	for _, f := range feats {
		dcfg := cfg.Template
		dcfg.Feature = f
		d, err := New(dcfg)
		if err != nil {
			return nil, err
		}
		b.detectors = append(b.detectors, d)
		for c := range d.cur {
			b.units = append(b.units, cloneUnit{d, c})
		}
	}
	if workers > 1 {
		b.tasks = make(chan func(), 4*workers)
		b.workerWG.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer b.workerWG.Done()
				for fn := range b.tasks {
					fn()
				}
			}()
		}
	}
	return b, nil
}

// Detectors exposes the underlying per-feature detectors (read-only use).
func (b *Bank) Detectors() []*Detector { return b.detectors }

// Workers returns the effective worker-pool size (1 = sequential).
func (b *Bank) Workers() int { return b.workers }

// Close shuts the worker pool down and waits for its goroutines to
// exit. It is idempotent. The bank must not be used after Close.
func (b *Bank) Close() {
	b.closeOnce.Do(func() {
		if b.tasks != nil {
			close(b.tasks)
		}
		b.workerWG.Wait()
	})
}

// runTasks executes n tasks produced by gen(i) on the pool and waits for
// all of them; with a sequential bank it just runs them inline.
func (b *Bank) runTasks(n int, gen func(i int) func()) {
	if b.tasks == nil {
		for i := 0; i < n; i++ {
			gen(i)()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		fn := gen(i)
		b.tasks <- func() {
			defer wg.Done()
			fn()
		}
	}
	wg.Wait()
}

// Observe feeds one flow into every feature detector.
func (b *Bank) Observe(rec *flow.Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range b.detectors {
		d.Observe(rec)
	}
}

// ObserveBatch feeds a batch of flows into every feature detector,
// fanning the (detector, clone) histogram updates out over the worker
// pool. The result is identical to observing each record sequentially:
// histogram updates commute and each clone is owned by one task.
func (b *Bank) ObserveBatch(recs []flow.Record) {
	if len(recs) == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tasks == nil || len(recs) < minParallelBatch {
		for _, d := range b.detectors {
			d.ObserveBatch(recs)
		}
		return
	}
	b.runTasks(len(b.units), func(i int) func() {
		u := b.units[i]
		return func() { u.d.observeClone(u.clone, recs) }
	})
}

// EndInterval closes the interval on every detector and merges their
// meta-data (union across detectors, §II-A): FinishInterval over the
// live clone sets, under the bank mutex so no observe interleaves.
func (b *Bank) EndInterval() BankResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.FinishInterval(b.live())
}

// LiveInterval returns every detector's current-interval clone set,
// index-aligned with Detectors() — the live counterpart of the sets
// SwapInterval drains. The sets stay owned by the bank: the caller must
// keep observes off the bank while it uses them (core holds the
// pipeline lock across its synchronous close).
func (b *Bank) LiveInterval() [][]*histogram.Histogram {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.live()
}

// live collects the current-interval clone sets. b.mu must be held.
func (b *Bank) live() [][]*histogram.Histogram {
	sets := make([][]*histogram.Histogram, len(b.detectors))
	for i, d := range b.detectors {
		sets[i] = d.cur
	}
	return sets
}

// mergeResults consolidates per-detector interval results in feature
// order (union across detectors, §II-A).
func mergeResults(results []Result) BankResult {
	res := BankResult{Meta: NewMetaData()}
	for _, r := range results {
		res.Interval = r.Interval
		res.PerFeature = append(res.PerFeature, r)
		if r.Alarm {
			res.Alarm = true
			for _, v := range r.Meta {
				res.Meta.Add(r.Feature, v)
			}
		}
	}
	return res
}

// SwapInterval exchanges every detector's current-interval clone set for
// the corresponding entry of repl — a reset set previously returned by
// SwapInterval, or nil to allocate fresh sets — and returns the drained
// sets, index-aligned with Detectors(). repl's outer slice is reused as
// the return container, so a caller cycling sets through a freelist
// allocates nothing. The swap takes the bank mutex and is therefore
// atomic with respect to ObserveBatch; the expensive close math runs
// later via FinishInterval.
func (b *Bank) SwapInterval(repl [][]*histogram.Histogram) [][]*histogram.Histogram {
	b.mu.Lock()
	defer b.mu.Unlock()
	if repl == nil {
		repl = make([][]*histogram.Histogram, len(b.detectors))
	}
	for i, d := range b.detectors {
		repl[i] = d.SwapInterval(repl[i])
	}
	return repl
}

// FinishInterval closes the interval whose clone sets are cur — drained
// by SwapInterval, or the live sets of LiveInterval. It deliberately
// does NOT take the bank mutex: drained sets are private to the caller
// and each detector's interval history is touched only by finish calls,
// so detection here may overlap ObserveBatch on the swapped-in sets.
// The caller must serialize FinishInterval calls in interval order —
// the KL scheme compares each interval against the previous one. cur's
// histograms are reset in place for recycling.
func (b *Bank) FinishInterval(cur [][]*histogram.Histogram) BankResult {
	results := make([]Result, len(b.detectors))
	b.runTasks(len(b.detectors), func(i int) func() {
		return func() { results[i] = b.detectors[i].FinishInterval(cur[i]) }
	})
	return mergeResults(results)
}

// MergeDrained folds sibling clone sets into dst in sibling order, one
// task per detector on the worker pool — the cross-shard merge of the
// interval close. Detector columns are independent, so the parallel
// fold is byte-identical to merging each sibling in turn, and equal-seed
// clones are exact mergeable sketches, so the merged sets equal one
// bank having observed every sibling's flows. Like FinishInterval it
// takes no bank mutex: the sets are drained (SwapInterval) or live sets
// of pipelines the caller has locked. The sibling histograms keep their
// counts; the caller resets them.
func (b *Bank) MergeDrained(dst [][]*histogram.Histogram, siblings [][][]*histogram.Histogram) {
	b.runTasks(len(dst), func(i int) func() {
		return func() {
			for _, sib := range siblings {
				for c, h := range sib[i] {
					dst[i][c].Merge(h)
				}
			}
		}
	})
}
