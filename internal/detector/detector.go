package detector

import (
	"fmt"
	"slices"

	"anomalyx/internal/flow"
	"anomalyx/internal/hash"
	"anomalyx/internal/histogram"
	"anomalyx/internal/stats"
)

// Config parameterizes one per-feature detector (Table III).
type Config struct {
	// Feature is the monitored traffic feature.
	Feature flow.FeatureKind
	// Bins is k = 2^m, the number of histogram bins (default 1024).
	Bins int
	// Clones is n, the number of histogram clones with independent hash
	// functions (default 3).
	Clones int
	// Votes is l: a feature value enters the meta-data when at least l
	// clones selected it (l=1 is the union of clones, l=n the
	// intersection; default 3).
	Votes int
	// Alpha is the one-sided alarm threshold multiplier on the robust
	// standard deviation of the KL first difference (default 3).
	Alpha float64
	// TrainIntervals is the minimum number of first-difference samples
	// required before the detector may raise alarms (default 12).
	TrainIntervals int
	// HistoryWindow caps the number of first-difference samples kept for
	// the MAD estimate (default 192 = two days of 15-minute intervals).
	HistoryWindow int
	// MaxRemoveBins bounds the iterative anomalous-bin identification
	// (default 32; ≤0 means unbounded).
	MaxRemoveBins int
	// Seed derives the clones' independent hash functions.
	Seed uint64
	// Metric selects the distribution-change measure: the paper's KL
	// distance (default) or the entropy distance of Table I's
	// entropy-based detectors.
	Metric MetricKind
}

// MetricKind selects the detector's distribution-change measure.
type MetricKind uint8

const (
	// MetricKL is the Kullback–Leibler distance of §II-C (default).
	MetricKL MetricKind = iota
	// MetricEntropy is the absolute entropy difference — the measure of
	// entropy-based detectors (Table I, [33]).
	MetricEntropy
)

// metricFunc resolves the configured measure.
func (c Config) metricFunc() histogram.Metric {
	if c.Metric == MetricEntropy {
		return histogram.EntropyDistance
	}
	return histogram.KL
}

// WithDefaults returns c with unset fields filled with the paper's
// defaults — the exact normalization New applies before construction.
// Exported so other packages can compare or digest *effective*
// configurations (the wire handshake hashes the defaulted config, so an
// explicit Bins: 1024 and an implicit zero digest identically).
func (c Config) WithDefaults() Config { return c.withDefaults() }

// Defaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Bins == 0 {
		c.Bins = 1024
	}
	if c.Clones == 0 {
		c.Clones = 3
	}
	if c.Votes == 0 {
		c.Votes = c.Clones
	}
	if c.Alpha == 0 {
		c.Alpha = 3
	}
	if c.TrainIntervals == 0 {
		c.TrainIntervals = 12
	}
	if c.HistoryWindow == 0 {
		c.HistoryWindow = 192
	}
	if c.MaxRemoveBins == 0 {
		c.MaxRemoveBins = 32
	}
	return c
}

func (c Config) validate() error {
	if !c.Feature.Valid() {
		return fmt.Errorf("detector: invalid feature %d", c.Feature)
	}
	if c.Bins < 2 {
		return fmt.Errorf("detector: need at least 2 bins, got %d", c.Bins)
	}
	if c.Clones < 1 {
		return fmt.Errorf("detector: need at least 1 clone, got %d", c.Clones)
	}
	if c.Votes < 1 || c.Votes > c.Clones {
		return fmt.Errorf("detector: votes l=%d out of range [1,%d]", c.Votes, c.Clones)
	}
	return nil
}

// CloneReport is the per-clone outcome of one interval.
type CloneReport struct {
	KL             float64                  // KL(current || previous interval)
	Diff           float64                  // first difference of the KL series
	Alarm          bool                     // Diff exceeded the threshold
	Identification histogram.Identification // set only when Alarm
	Values         []uint64                 // feature values in the identified anomalous bins
}

// Result is the outcome of one interval for one feature detector.
type Result struct {
	Feature   flow.FeatureKind
	Interval  int
	Alarm     bool    // at least one clone alarmed
	Threshold float64 // alpha * robust sigma, NaN-free; 0 while training
	Trained   bool    // enough history for a threshold
	Clones    []CloneReport
	// Meta holds the voted feature values (≥ Votes clones selected
	// them). Empty unless Alarm.
	Meta []uint64
}

// Detector monitors one traffic feature with n histogram clones and the
// previous-interval KL scheme of §II-C. It is not safe for concurrent
// use.
type Detector struct {
	cfg    Config
	metric histogram.Metric

	cur  []*histogram.Histogram // current-interval histograms, value-tracked
	prev [][]uint64             // previous-interval counts per clone

	klPrev   []float64 // previous KL per clone (for the first difference)
	havePrev bool      // prev holds a complete interval
	haveKL   bool      // klPrev holds a valid KL (needs two intervals)

	diffs    []float64 // history of first differences (all clones pooled)
	interval int

	// binValues is the scratch buffer for the anomalous-bin → value
	// mapping, reused across clones and intervals so the bin sweep
	// (histogram.AppendValuesInBins) allocates only when an alarm needs
	// more room than any previous one. Safe because the values are
	// copied into the report before the next clone overwrites them.
	binValues []uint64
}

// New builds a detector, applying defaults to unset Config fields.
func New(cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, metric: cfg.metricFunc()}
	d.cur = newCloneSet(cfg)
	for c := 0; c < cfg.Clones; c++ {
		d.prev = append(d.prev, make([]uint64, cfg.Bins))
	}
	d.klPrev = make([]float64, cfg.Clones)
	return d, nil
}

// newCloneSet builds the per-clone value-tracked histograms for cfg. The
// hash functions are derived from (Seed, Feature, clone) only, so two
// sets built from the same effective Config are interchangeable — the
// property the pipelined close's recycling freelist relies on.
func newCloneSet(cfg Config) []*histogram.Histogram {
	set := make([]*histogram.Histogram, cfg.Clones)
	for c := range set {
		fn := hash.New(cfg.Seed ^ uint64(cfg.Feature)<<32 ^ uint64(c)*0x9e3779b97f4a7c15)
		set[c] = histogram.New(cfg.Bins, fn, true)
	}
	return set
}

// Config returns the detector's effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// Observe feeds one flow record into the current interval.
func (d *Detector) Observe(rec *flow.Record) {
	v := rec.Feature(d.cfg.Feature)
	for _, h := range d.cur {
		h.Add(v)
	}
}

// ObserveBatch feeds a batch of flow records into the current interval.
// It is equivalent to calling Observe on each record but amortizes the
// per-record call overhead.
func (d *Detector) ObserveBatch(recs []flow.Record) {
	for c := range d.cur {
		d.observeClone(c, recs)
	}
}

// observeClone feeds the batch into clone c's histogram only — the unit
// of work the parallel bank schedules on its worker pool.
func (d *Detector) observeClone(c int, recs []flow.Record) {
	h := d.cur[c]
	k := d.cfg.Feature
	for i := range recs {
		h.Add(recs[i].Feature(k))
	}
}

// Threshold returns the current alarm threshold (alpha * robust sigma of
// the pooled first-difference history) and whether enough history exists.
// The history pools one sample per clone per interval, so training
// requires TrainIntervals full intervals.
func (d *Detector) Threshold() (float64, bool) {
	if len(d.diffs) < d.cfg.TrainIntervals*d.cfg.Clones {
		return 0, false
	}
	return d.cfg.Alpha * stats.RobustSigma(d.diffs), true
}

// EndInterval closes the current interval: computes per-clone KL
// distances and first differences, raises an alarm if any clone's
// difference exceeds the threshold, identifies anomalous bins, votes on
// feature values, and rotates the histograms. The previous interval
// becomes the new reference (§II-C: no training or recalibration).
func (d *Detector) EndInterval() Result { return d.FinishInterval(d.cur) }

// SwapInterval exchanges the current-interval histograms for repl — a
// reset clone set previously returned by SwapInterval (or nil, which
// allocates a fresh set) — and returns the set that was accumulating.
// This is the cheap synchronous half of a pipelined close: the caller
// drains the open interval here and runs the expensive detection math
// later via FinishInterval while new records flow into repl. The
// returned set must be passed to exactly one FinishInterval call, and
// FinishInterval calls must happen in swap order — the KL scheme is
// sequential (each interval is compared against the previous one).
func (d *Detector) SwapInterval(repl []*histogram.Histogram) []*histogram.Histogram {
	if repl == nil {
		repl = newCloneSet(d.cfg)
	}
	cur := d.cur
	d.cur = repl
	return cur
}

// FinishInterval runs the interval close against cur, a clone set drained
// by SwapInterval (EndInterval passes the live set directly). It computes
// the per-clone distances against the detector's history, rotates that
// history, and resets cur in place so the caller can recycle it. Calls
// must be sequential and in swap order; FinishInterval never touches
// d.cur, so it may run concurrently with Observe/ObserveBatch on the
// swapped-in set.
func (d *Detector) FinishInterval(cur []*histogram.Histogram) Result {
	res := Result{
		Feature:  d.cfg.Feature,
		Interval: d.interval,
		Clones:   make([]CloneReport, d.cfg.Clones),
	}
	threshold, trained := d.Threshold()
	res.Threshold = threshold
	res.Trained = trained

	votes := make(map[uint64]int)
	for c, h := range cur {
		rep := &res.Clones[c]
		if d.havePrev {
			rep.KL = d.metric(h.Counts(), d.prev[c])
			if d.haveKL {
				rep.Diff = rep.KL - d.klPrev[c]
				// One-sided test: only positive spikes alarm (§II-C).
				if trained && rep.Diff > threshold {
					rep.Alarm = true
					res.Alarm = true
					rep.Identification = histogram.IdentifyAnomalousBinsMetric(
						h.Counts(), d.prev[c], d.klPrev[c], threshold, d.cfg.MaxRemoveBins, d.metric)
					// One table sweep for all identified bins (grouped
					// in identification order, values ascending per
					// bin — the same concatenation the per-bin loop
					// produced). A value lands in exactly one bin per
					// clone, so each flagged value votes once here.
					d.binValues = h.AppendValuesInBins(d.binValues[:0], rep.Identification.Bins)
					rep.Values = append(rep.Values, d.binValues...)
					for _, v := range d.binValues {
						votes[v]++
					}
				}
			}
		}
	}

	if res.Alarm {
		for v, n := range votes {
			if n >= d.cfg.Votes {
				res.Meta = append(res.Meta, v)
			}
		}
		// Sort so results are deterministic regardless of map iteration
		// order — the parallel bank's byte-identical-merge contract.
		slices.Sort(res.Meta)
	}

	d.rotate(cur, res)
	return res
}

// rotate archives the interval accumulated in cur and prepares the next
// one, resetting cur's histograms in place.
func (d *Detector) rotate(cur []*histogram.Histogram, res Result) {
	for c, h := range cur {
		copy(d.prev[c], h.Counts())
		if d.havePrev {
			if d.haveKL {
				d.diffs = append(d.diffs, res.Clones[c].Diff)
			}
			d.klPrev[c] = res.Clones[c].KL
		}
		h.Reset()
	}
	if d.havePrev {
		d.haveKL = true
	}
	d.havePrev = true
	if w := d.cfg.HistoryWindow * d.cfg.Clones; len(d.diffs) > w {
		d.diffs = d.diffs[len(d.diffs)-w:]
	}
	d.interval++
}
