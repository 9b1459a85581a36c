// Command perfbench is anomalyx's end-to-end benchmark. It generates a
// seeded tracegen trace in-process, drives one workload through the
// public entry points — netflow, engine and core in-process, or agent
// sessions shipping over loopback TCP to a collector — checks every
// report against a plain in-process pipeline, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced passes; --trace 1
// prints the per-layer metrics of a separate traced pass. DESIGN.md
// gives the workloads' rationale and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"anomalyx"
)

// Workload settings. liveRate is about a sixth of the closed-loop
// throughput of the live trace at PipelineDepth 2: the engine stays
// well below saturation even while a shared host runs slow, alarm
// closes do not queue behind each other, and close latency, not
// ingest, sets report latency.
const (
	liveRate    = 150000 // flows per second offered on live
	liveDepth   = 2
	agents      = 2
	lagLimit    = 10 * time.Millisecond // live: generator lag p90 above this fails the run
	setupReps   = 50                    // set-up-only repetitions before every pass
	confirmSeed = 104729                // never used while tuning; see DESIGN.md
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"flows_per_s", "flows/s"},
	{"cpu_s_per_mflow", "s"},
	{"alloc_bytes_per_flow", "B"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"netflow.decode_ns_per_flow", "ns"},
	{"engine.submit_ns_per_flow", "ns"},
	{"engine.boundary_submit_us_p90", "us"},
	{"core.observe_ns_per_flow", "ns"},
	{"core.close_ms_p50", "ms"},
	{"core.close_ms_p90", "ms"},
	{"core.drain_ms_p50", "ms"},
	{"core.absorb_ms_p50", "ms"},
	{"flow.append_ns_per_flow", "ns"},
	{"detector.observe_ns_per_flow", "ns"},
	{"detector.close_ms_p50", "ms"},
	{"prefilter.scan_ns_per_flow", "ns"},
	{"prefilter.suspicious_ratio", "ratio"},
	{"itemset.build_ns_per_tx", "ns"},
	{"mining.mine_ms_p50", "ms"},
	{"mining.mine_s_total", "s"},
	{"mining.maximal_per_frequent", "ratio"},
	{"wire.encode_ns_per_flow", "ns"},
	{"wire.decode_ns_per_flow", "ns"},
	{"wire.clone_bytes_per_interval", "B"},
	{"wire.record_bytes_per_flow", "B"},
	{"wire.conn_bytes_per_flow", "B"},
	{"bench.report_latency_p50_ms", "ms"},
	{"bench.report_latency_p90_ms", "ms"},
	{"bench.alarm_report_latency_ms", "ms"},
	{"bench.generator_lag_p90_ms", "ms"},
	{"bench.stage_sum_ratio", "ratio"},
	{"bench.tracing_overhead", "ratio"},
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// intervals and baseFlows shrink the trace when positive; rate
	// overrides liveRate; setupReps overrides the set-up repetitions.
	// Only the self-tests set them.
	intervals, baseFlows int
	rate                 float64
	setupReps            int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o := options{setupReps: setupReps}
	flag.StringVar(&o.workload, "workload", "replay", "workload: replay, live or distributed")
	flag.Int64Var(&o.seed, "seed", 0, "trace seed (0 is the stock small trace)")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure; passes repeat until it has elapsed")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of traced passes instead of the end-to-end ones")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation, printing the environment and progress
// lines to w, and returns the result.
func run(o options, w io.Writer) (*result, error) {
	if o.rate <= 0 {
		o.rate = liveRate
	}
	var in *input
	var err error
	switch o.workload {
	case "replay":
		in, err = buildInput(traceConfig(o.seed, false, o.intervals, o.baseFlows), formV5, 0)
	case "live":
		in, err = buildInput(traceConfig(o.seed, true, o.intervals, o.baseFlows), formRecords, 0)
	case "distributed":
		in, err = buildInput(traceConfig(o.seed, true, o.intervals, o.baseFlows), formSplit, agents)
	default:
		return nil, fmt.Errorf("unknown workload %q (want replay, live or distributed)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, in: in, w: w, res: &result{Correct: true, Metrics: map[string]metricValue{}}}
	if err := b.measure(); err != nil {
		return nil, err
	}
	return b.res, nil
}

// bench carries one invocation's state.
type bench struct {
	o   options
	in  *input
	w   io.Writer
	res *result

	setups []time.Duration
}

// pass runs one untraced pass of the workload; closed forces a
// closed loop on live (the tracing-overhead baseline).
func (b *bench) pass(setupOnly, closed bool) (*passResult, error) {
	switch b.o.workload {
	case "replay":
		return enginePass(anomalyx.EngineConfig{Buffer: closedLoopBuffer}, newV5Source(b.in), setupOnly)
	case "live":
		if closed {
			return enginePass(anomalyx.EngineConfig{PipelineDepth: liveDepth, Buffer: closedLoopBuffer},
				&sliceSource{intervals: b.in.recs}, setupOnly)
		}
		return enginePass(anomalyx.EngineConfig{PipelineDepth: liveDepth},
			&sliceSource{intervals: b.in.recs, rate: b.o.rate}, setupOnly)
	default:
		return distributedPass(b.in, setupOnly)
	}
}

func (b *bench) tracedPass(sp *spans) (*tracedResult, error) {
	switch b.o.workload {
	case "replay":
		return tracedEnginePass(newV5Source(b.in), sp)
	case "live":
		return tracedEnginePass(&sliceSource{intervals: b.in.recs}, sp)
	default:
		return tracedDistributedPass(b.in, sp)
	}
}

// check verifies a pass's reports against the reference and returns how
// many intervals failed.
func (b *bench) check(reps []*anomalyx.Report) int {
	att, failed := verify(b.in.ref, reps)
	b.res.Attempted += att
	b.res.Failed += failed
	return failed
}

// liveInvalid reports why a paced pass does not measure the system
// below saturation: the generator fell behind its schedule, or the
// backlog of submitted but unreported flows grew through the run (the
// median over the last quarter of reports exceeds twice the first
// quarter's plus one mean interval of flows).
func liveInvalid(p *passResult, in *input) string {
	if lag := percentile(p.lags, 0.9); lag > lagLimit {
		return fmt.Sprintf("generator lag p90 %v exceeds %v", lag, lagLimit)
	}
	q := len(p.backlog) / 4
	if q == 0 {
		return ""
	}
	first := medianInt(p.backlog[:q])
	last := medianInt(p.backlog[len(p.backlog)-q:])
	if slack := in.flows / len(in.ref); last > 2*first+slack {
		return fmt.Sprintf("backlog grew from %d to %d flows", first, last)
	}
	return ""
}

// measure runs passes until o.seconds have elapsed (at least one), each
// after a few set-up-only repetitions, and fills in the result. Spreading
// the set-up samples over the run keeps their median steady. An untraced
// live run makes one paced pass and then closed-loop passes over the same
// trace (at least one), which give its end-to-end metrics.
func (b *bench) measure() error {
	var passes, closedPasses []*passResult
	var traced []*tracedResult
	sp := &spans{}
	closedLoop := b.o.workload == "live" && !b.o.trace
	start := time.Now()
	for len(passes) == 0 || (closedLoop && len(closedPasses) == 0) || time.Since(start).Seconds() < b.o.seconds {
		for i := 0; i < b.o.setupReps; i++ {
			p, err := b.pass(true, false)
			if err != nil {
				return err
			}
			b.setups = append(b.setups, p.setup)
		}
		if closedLoop && len(passes) > 0 {
			cp, err := b.pass(false, true)
			if err != nil {
				return err
			}
			b.check(cp.reports)
			b.logPass("closed-loop", cp)
			closedPasses = append(closedPasses, cp)
			continue
		}
		p, err := b.pass(false, false)
		if err != nil {
			return err
		}
		failed := b.check(p.reports)
		b.logPass("untraced", p)
		if p.lags != nil { // paced: the live validity guard applies
			if why := liveInvalid(p, b.in); why != "" {
				fmt.Fprintf(b.w, "# live run invalid: %s\n", why)
				b.res.Correct = false
				b.res.Failed += max(0, len(b.in.ref)-failed)
			}
		}
		b.setups = append(b.setups, p.setup)
		passes = append(passes, p)
		if !b.o.trace {
			continue
		}
		cp := p
		if b.o.workload == "live" {
			if cp, err = b.pass(false, true); err != nil {
				return err
			}
			b.check(cp.reports)
			b.logPass("closed-loop", cp)
		}
		closedPasses = append(closedPasses, cp)
		t, err := b.tracedPass(sp)
		if err != nil {
			return err
		}
		b.check(t.reports)
		fmt.Fprintf(b.w, "# traced pass: %.3fs\n", t.elapsed.Seconds())
		traced = append(traced, t)
	}
	b.res.Failed += sp.failed
	b.res.Correct = b.res.Correct && b.res.Failed == 0
	b.env(len(passes), len(closedPasses))
	if b.o.trace {
		b.layerMetrics(passes, closedPasses, traced, sp)
	} else {
		b.endToEndMetrics(passes, closedPasses)
	}
	return nil
}

func (b *bench) logPass(kind string, p *passResult) {
	fmt.Fprintf(b.w, "# %s pass: %d flows in %.3fs (%.0f flows/s), set-up %.6fs, generator lag p90 %.3fms\n",
		kind, p.flows, p.wall.Seconds(), float64(p.flows)/p.wall.Seconds(), p.setup.Seconds(), ms(percentile(p.lags, 0.9)))
}

// env prints the environment the result was measured in.
func (b *bench) env(passes, closedPasses int) {
	e := map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"workload":     b.o.workload,
		"seed":         b.o.seed,
		"trace_seed":   b.in.cfg.Seed,
		"flows":        b.in.flows,
		"intervals":    len(b.in.ref),
		"live_rate":    b.o.rate,
		"passes":       passes,
		"setup_reps":   len(b.setups),
		"confirm_seed": confirmSeed,
	}
	if b.o.workload == "live" {
		e["closed_loop_passes"] = closedPasses
	}
	line, _ := json.Marshal(e) // plain values cannot fail to marshal
	fmt.Fprintf(b.w, "# env %s\n", line)
}

func (b *bench) set(name string, v float64) {
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if d.name == name {
			b.res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// endToEndMetrics sets the end-to-end metrics. On live they come from
// the closed-loop passes, which keep both cores busy: the paced pass
// idles five sixths of the time, and the cost of waking from idle swings
// with the shared host's load. The paced pass gives the report latency.
func (b *bench) endToEndMetrics(passes, closedPasses []*passResult) {
	measured := passes
	if b.o.workload == "live" {
		measured = closedPasses
	}
	var rate, cpu, alloc, heap []float64
	for _, p := range measured {
		rate = append(rate, float64(p.flows)/p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds()/(float64(p.flows)/1e6))
		alloc = append(alloc, float64(p.alloc)/float64(p.flows))
		heap = append(heap, float64(p.peakHeap)/1e6)
	}
	b.set("flows_per_s", median(rate))
	b.set("cpu_s_per_mflow", median(cpu))
	b.set("alloc_bytes_per_flow", median(alloc))
	b.set("peak_heap_mb", median(heap))
	b.set("setup_s", percentile(b.setups, 0.5).Seconds())
	b.reportLatencies(passes)
}

// reportLatencies prints the report latencies of the workload's own passes and
// returns them pooled, and those of the intervals whose reference report
// raised an alarm. They are not end-to-end metrics: see "Report latency
// carries no bound" in DESIGN.md.
func (b *bench) reportLatencies(passes []*passResult) (all, alarm []time.Duration) {
	var quiet []time.Duration
	for _, p := range passes {
		all = append(all, p.latencies...)
		for k, l := range p.latencies { // reports arrive in interval order
			if k < len(b.in.alarm) && b.in.alarm[k] {
				alarm = append(alarm, l)
			} else {
				quiet = append(quiet, l)
			}
		}
	}
	fmt.Fprintf(b.w, "# report latency over %d intervals (%d alarms): p50 %.3fms, p90 %.3fms, p97.5 %.3fms; median %.3fms over alarms, %.3fms over the rest\n",
		len(all), len(alarm), ms(percentile(all, 0.5)), ms(percentile(all, 0.9)), ms(percentile(all, 0.975)),
		ms(percentile(alarm, 0.5)), ms(percentile(quiet, 0.5)))
	return all, alarm
}

func (b *bench) layerMetrics(passes, closedPasses []*passResult, traced []*tracedResult, sp *spans) {
	// Submit timings, the generator lag and the collector's inbound bytes
	// come from the workload's own untraced passes, so blocking and
	// pacing are the real ones.
	var submits, boundary, lags []time.Duration
	var flows int
	var connBytes int64
	for _, p := range passes {
		submits = append(submits, p.submits...)
		boundary = append(boundary, p.boundarySubmits...)
		lags = append(lags, p.lags...)
		flows += p.flows
		connBytes += p.connBytes
	}
	lat, alarm := b.reportLatencies(passes)
	b.set("bench.report_latency_p50_ms", ms(percentile(lat, 0.5)))
	b.set("bench.report_latency_p90_ms", ms(percentile(lat, 0.9)))
	b.set("bench.alarm_report_latency_ms", ms(percentile(alarm, 0.5)))
	b.set("engine.submit_ns_per_flow", perUnit(sum(submits), flows))
	b.set("engine.boundary_submit_us_p90", us(percentile(boundary, 0.9)))
	b.set("bench.generator_lag_p90_ms", ms(percentile(lags, 0.9)))
	b.set("wire.conn_bytes_per_flow", ratio(float64(connBytes), float64(flows)))

	// The traced wall leaves out the re-run inner calls and other
	// benchmark-only work; the untraced baseline is a closed loop over
	// the same inputs.
	var decode, elapsed, baseline time.Duration
	for i, t := range traced {
		decode += t.decode
		elapsed += t.elapsed
		baseline += closedPasses[i].wall
	}
	wall := elapsed - sp.excluded
	b.set("bench.stage_sum_ratio", ratio(float64(decode+sp.stageSum()), float64(wall)))
	b.set("bench.tracing_overhead", ratio(float64(wall), float64(baseline)))

	var closes, detClose []time.Duration
	var prefilterT, itemsetT, mineT time.Duration
	for _, c := range sp.closes {
		closes = append(closes, c.close)
		detClose = append(detClose, max(0, c.close-c.prefilter-c.itemset-c.mine))
		prefilterT += c.prefilter
		itemsetT += c.itemset
		mineT += c.mine
	}
	var decodedFlows int
	if b.o.workload == "replay" {
		decodedFlows = sp.observed
	}
	b.set("netflow.decode_ns_per_flow", perUnit(decode, decodedFlows))
	b.set("core.observe_ns_per_flow", perUnit(sp.observe, sp.observed))
	b.set("core.close_ms_p50", ms(percentile(closes, 0.5)))
	b.set("core.close_ms_p90", ms(percentile(closes, 0.9)))
	b.set("core.drain_ms_p50", ms(percentile(sp.drains, 0.5)))
	b.set("core.absorb_ms_p50", ms(percentile(sp.absorbs, 0.5)))
	b.set("flow.append_ns_per_flow", perUnit(sp.appendT, sp.observed))
	b.set("detector.observe_ns_per_flow", perUnit(max(0, sp.observe-sp.appendT), sp.observed))
	b.set("detector.close_ms_p50", ms(percentile(detClose, 0.5)))
	b.set("prefilter.scan_ns_per_flow", perUnit(prefilterT, sp.scanned))
	b.set("prefilter.suspicious_ratio", ratio(float64(sp.suspicious), float64(sp.scanned)))
	b.set("itemset.build_ns_per_tx", perUnit(itemsetT, sp.txs))
	b.set("mining.mine_ms_p50", ms(percentile(sp.mines, 0.5)))
	b.set("mining.mine_s_total", mineT.Seconds()/float64(len(traced)))
	b.set("mining.maximal_per_frequent", ratio(float64(sp.maxim), float64(sp.frequent)))
	b.set("wire.encode_ns_per_flow", perUnit(sp.encode, sp.drained))
	b.set("wire.decode_ns_per_flow", perUnit(sp.decode, sp.drained))
	b.set("wire.clone_bytes_per_interval", ratio(float64(sp.cloneOnly), float64(len(sp.drains))))
	b.set("wire.record_bytes_per_flow", ratio(float64(sp.wireBytes-sp.cloneOnly), float64(sp.drained)))
}
