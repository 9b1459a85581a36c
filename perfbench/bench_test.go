package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"anomalyx"
)

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var c struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryWorkload runs each workload once, untraced and traced,
// on a tiny trace, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and that every
// report matched the reference.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, w := range []string{"replay", "live", "distributed"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(options{workload: w, seed: 1, trace: trace,
					intervals: 16, baseFlows: 400, rate: 2e4, setupReps: 1}, &out)
				if err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   *bool
					Attempted *int
					Failed    *int
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("result line misses a key: %s", line)
				}
				if !*got.Correct || *got.Failed != 0 || *got.Attempted < 16 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", *got.Correct, *got.Attempted, *got.Failed, out.String())
				}
				for name, unit := range want {
					m, ok := got.Metrics[name]
					switch {
					case !ok || m.Value == nil:
						t.Errorf("metric %s not printed", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
				}
				for name := range got.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s printed but not declared", name)
					}
				}
			})
		}
	}
}

// TestTamperedReportCountsAsFailed checks that the reference check
// catches a report that lost one item-set, and a missing report.
func TestTamperedReportCountsAsFailed(t *testing.T) {
	in, err := buildInput(traceConfig(0, true, 40, 2000), formRecords, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := enginePass(anomalyx.EngineConfig{}, &sliceSource{intervals: in.recs}, false)
	if err != nil {
		t.Fatal(err)
	}
	if att, failed := verify(in.ref, p.reports); att != 40 || failed != 0 {
		t.Fatalf("untampered: attempted %d failed %d, want 40 and 0", att, failed)
	}
	i := slices.IndexFunc(p.reports, func(r *anomalyx.Report) bool { return len(r.ItemSets) > 0 })
	if i < 0 {
		t.Fatal("no interval mined an item-set; the tamper test needs one")
	}
	tampered := *p.reports[i]
	tampered.ItemSets = tampered.ItemSets[1:]
	reps := slices.Clone(p.reports)
	reps[i] = &tampered
	if _, failed := verify(in.ref, reps); failed != 1 {
		t.Errorf("dropped item-set: failed %d, want 1", failed)
	}
	if _, failed := verify(in.ref, p.reports[:len(p.reports)-1]); failed != 1 {
		t.Errorf("missing report: failed %d, want 1", failed)
	}
}

// TestLiveGuard checks the live validity guard on synthetic passes.
func TestLiveGuard(t *testing.T) {
	in := &input{flows: 4000, ref: make([]string, 8)} // 500 flows per interval
	steady := &passResult{
		lags:    []time.Duration{time.Millisecond, time.Millisecond},
		backlog: []int{300, 200, 400, 300, 250, 300, 350, 200},
	}
	if why := liveInvalid(steady, in); why != "" {
		t.Errorf("steady pass flagged: %s", why)
	}
	late := &passResult{lags: []time.Duration{2 * lagLimit, 2 * lagLimit}, backlog: steady.backlog}
	if liveInvalid(late, in) == "" {
		t.Error("generator lag above the limit not flagged")
	}
	growing := &passResult{lags: steady.lags, backlog: []int{300, 200, 900, 1500, 2400, 3000, 4000, 5000}}
	if liveInvalid(growing, in) == "" {
		t.Error("growing backlog not flagged")
	}
}

// TestLockstepFailEndsWait checks that a traced producer does not hang
// on a sink that failed: a failed engine discards the rest of its input.
func TestLockstepFailEndsWait(t *testing.T) {
	l := newLockstep()
	l.advance(5, 0)
	go l.fail()
	l.wait(10, 1)
}
