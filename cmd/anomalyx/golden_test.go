package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"anomalyx/internal/netflow"
	"anomalyx/internal/tracegen"
)

// goldenIntervals is the length of the golden trace: the first 40
// intervals of the small-scale tracegen trace (default seed and event
// schedule), ~480k flows. Its first ground-truth events (a scan and a
// DDoS) land in interval 21, after the default 12 training intervals.
const goldenIntervals = 40

// goldenStreams pins the CLI report stream (-v, every interval) over
// the golden trace to a SHA-256 digest per configuration. Every other
// parity test compares one execution path with another, so a change
// that moves all paths the same way passes them; these digests catch
// it. A digest may change only with a CHANGES.md entry explaining why
// the reports moved. firstAlarm is the stream's first alarm line, a
// readable anchor for diagnosing a digest mismatch.
var goldenStreams = []struct {
	name       string
	args       []string
	digest     string
	firstAlarm string
}{
	{
		name:       "default",
		digest:     "f3db5fa4b1da4f557a7ab52adb1f777699d6e934a689c89b576e8de780ae9a50",
		firstAlarm: "interval   21:   23467 flows  ALARM  suspicious=17519 minsup=875 itemsets=4 (R=5867)",
	},
	{
		name:       "intersection-eclat",
		args:       []string{"-prefilter", "intersection", "-miner", "eclat"},
		digest:     "a4e044f309a1570490e339d48f039a2cf4d36e915ac17f845b0c1ee740bfa1c2",
		firstAlarm: "interval   21:   23467 flows  ALARM  suspicious=0 minsup=0 itemsets=0 (R=+Inf)",
	},
}

var goldenTraceOnce struct {
	sync.Once
	whole []byte
	parts [2][]byte
	err   error
}

// goldenTrace renders the golden trace as NetFlow v5 packets, once per
// test binary: the whole trace, and a two-way split by record index
// parity for the agent→collector loopback.
func goldenTrace(t *testing.T) (whole []byte, parts [2][]byte) {
	t.Helper()
	g := &goldenTraceOnce
	g.Do(func() {
		cfg := tracegen.SmallConfig()
		gen := tracegen.New(cfg)
		var bufs [3]bytes.Buffer
		var ws [3]*netflow.Writer
		for i := range ws {
			ws[i] = netflow.NewWriter(&bufs[i], cfg.IntervalStart(0))
		}
		for i := 0; i < goldenIntervals && g.err == nil; i++ {
			for j, rec := range gen.Interval(i) {
				if g.err = ws[0].Write(rec); g.err != nil {
					break
				}
				if g.err = ws[1+j%2].Write(rec); g.err != nil {
					break
				}
			}
		}
		for _, w := range ws {
			if err := w.Flush(); g.err == nil {
				g.err = err
			}
		}
		g.whole, g.parts = bufs[0].Bytes(), [2][]byte{bufs[1].Bytes(), bufs[2].Bytes()}
	})
	if g.err != nil {
		t.Fatal(g.err)
	}
	return g.whole, g.parts
}

// goldenRun runs -mode run over the whole golden trace and returns the
// printed report stream.
func goldenRun(t *testing.T, args []string) string {
	t.Helper()
	whole, _ := goldenTrace(t)
	o, err := parseArgs(append([]string{"-in", "x", "-v"}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	intervals, _, err := run(o, bytes.NewReader(whole), &out)
	if err != nil {
		t.Fatal(err)
	}
	if intervals != goldenIntervals {
		t.Fatalf("%d intervals, want %d", intervals, goldenIntervals)
	}
	return out.String()
}

// goldenLoopback streams the two halves of the golden trace from two
// agents over loopback TCP to a collector and returns the collector's
// printed report stream.
func goldenLoopback(t *testing.T, args []string) string {
	t.Helper()
	_, parts := goldenTrace(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	collOpts, err := parseArgs(append([]string{
		"-mode", "collector", "-listen", "ignored", "-agents", "2", "-v",
	}, args...), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	collDone := make(chan error, 1)
	go func() {
		_, _, err := serveCollector(collOpts, ln, &out)
		collDone <- err
	}()
	agentErrs := make(chan error, len(parts))
	for id := range parts {
		go func(id int) {
			o, err := parseArgs(append([]string{
				"-mode", "agent", "-in", "x", "-connect", ln.Addr().String(),
				"-agent-id", fmt.Sprint(id),
			}, args...), io.Discard)
			if err == nil {
				_, err = runAgent(o, bytes.NewReader(parts[id]), io.Discard)
			}
			agentErrs <- err
		}(id)
	}
	for range parts {
		if err := <-agentErrs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-collDone; err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func digestOf(stream string) string {
	sum := sha256.Sum256([]byte(stream))
	return hex.EncodeToString(sum[:])
}

// firstAlarmLine returns the first ALARM line of a report stream.
func firstAlarmLine(stream string) string {
	for _, line := range strings.Split(stream, "\n") {
		if strings.Contains(line, "ALARM") {
			return line
		}
	}
	return ""
}

// TestGoldenReportStream pins the report stream of the golden trace, for
// the default configuration and an intersection/eclat one, across a
// plain run, two shards, pipeline depth 2, and an agent→collector
// loopback: every path must hash to the checked-in digest.
func TestGoldenReportStream(t *testing.T) {
	for _, gs := range goldenStreams {
		t.Run(gs.name, func(t *testing.T) {
			t.Parallel()
			ref := goldenRun(t, gs.args)
			if got := firstAlarmLine(ref); got != gs.firstAlarm {
				t.Errorf("first alarm line\ngot:  %s\nwant: %s", got, gs.firstAlarm)
			}
			if got := digestOf(ref); got != gs.digest {
				t.Fatalf("report stream digest %s, want %s; stream:\n%s", got, gs.digest, ref)
			}
			for _, extra := range [][]string{{"-shards", "2"}, {"-pipeline-depth", "2"}} {
				if got := digestOf(goldenRun(t, append(append([]string{}, gs.args...), extra...))); got != gs.digest {
					t.Errorf("%v: report stream digest %s, want %s", extra, got, gs.digest)
				}
			}
			if got := digestOf(goldenLoopback(t, gs.args)); got != gs.digest {
				t.Errorf("agent→collector loopback: report stream digest %s, want %s", got, gs.digest)
			}
		})
	}
}
