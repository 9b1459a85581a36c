package wire_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/flow"
	"anomalyx/internal/tracegen"
	"anomalyx/internal/wire"
)

// testTrace generates a seeded tracegen trace with an injected dstPort
// flood in interval floodAt so detection, prefiltering, and mining are
// all exercised. Records keep their tracegen timestamps, which fall
// inside aligned 15-minute interval windows — the engine's boundary
// grid therefore reproduces the tracegen interval structure exactly.
func testTrace(intervals, baseFlows, floodAt int) [][]flow.Record {
	cfg := tracegen.SmallConfig()
	cfg.Intervals = intervals
	cfg.BaseFlows = baseFlows
	cfg.Events = tracegen.Schedule(cfg.Intervals, cfg.BaseFlows)
	gen := tracegen.New(cfg)
	out := make([][]flow.Record, intervals)
	for i := range out {
		recs := gen.Interval(i)
		if i == floodAt {
			for j := range recs {
				if j%3 == 0 {
					recs[j].DstAddr, recs[j].DstPort = 42, 31337
					recs[j].Packets, recs[j].Bytes = 1, 40
				}
			}
		}
		out[i] = recs
	}
	return out
}

func testPipelineConfig() core.Config {
	return core.Config{
		Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 3},
	}
}

// renderReport serializes every deterministic report field so two
// reports can be compared for byte identity (the KeepSuspicious
// forensic slice is excluded, as in the shard determinism tests).
func renderReport(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "interval=%d alarm=%v total=%d suspicious=%d minsup=%d R=%v partial=%v\n",
		rep.Interval, rep.Alarm, rep.TotalFlows, rep.SuspiciousFlows,
		rep.MinSupport, rep.CostReduction, rep.Partial)
	fmt.Fprintf(&b, "detection=%+v\n", rep.Detection)
	if rep.Mining != nil {
		fmt.Fprintf(&b, "mining=%+v\n", *rep.Mining)
	}
	for i := range rep.ItemSets {
		fmt.Fprintf(&b, "set %s sup=%d\n", rep.ItemSets[i].String(), rep.ItemSets[i].Support)
	}
	return b.String()
}

// TestBankSnapshotRoundTrip pins the codec's lossless-checkpoint
// guarantee at the bank level: snapshot a bank with real detection
// history and a partially accumulated interval, push it through
// encode/decode, restore into a fresh bank, and both banks must produce
// byte-identical results for every subsequent interval. The decoded
// snapshot must also be deeply equal to the original and re-encode to
// identical bytes (the canonical-form property).
func TestBankSnapshotRoundTrip(t *testing.T) {
	trace := testTrace(8, 2000, 6)
	cfg := testPipelineConfig()
	bcfg := detector.BankConfig{Template: cfg.Detector, Workers: 1}

	orig, err := detector.NewBank(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	// Build history over five intervals, then leave a sixth partially
	// accumulated so the open-interval state is non-trivial too.
	for i := 0; i < 5; i++ {
		orig.ObserveBatch(trace[i])
		orig.EndInterval()
	}
	orig.ObserveBatch(trace[5][:900])

	snap := orig.Snapshot()
	enc := wire.EncodeBankSnapshot(snap)
	dec, err := wire.DecodeBankSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec, snap) {
		t.Fatal("decoded bank snapshot differs from the original")
	}
	if enc2 := wire.EncodeBankSnapshot(dec); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}

	restored, err := detector.NewBank(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreSnapshot(dec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// Subsequent reports must be byte-identical, interval for interval.
	for i := 5; i < len(trace); i++ {
		rest := trace[i]
		if i == 5 {
			rest = trace[i][900:] // the first 900 are already in both banks
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		want := fmt.Sprintf("%+v", orig.EndInterval())
		got := fmt.Sprintf("%+v", restored.EndInterval())
		if got != want {
			t.Fatalf("interval %d diverged after restore:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestPipelineSnapshotRoundTrip is the pipeline-level version: the
// snapshot additionally carries the interval's flow buffer, so the
// restored pipeline's extraction stage (prefilter + mining) must also
// match byte for byte.
func TestPipelineSnapshotRoundTrip(t *testing.T) {
	trace := testTrace(10, 2000, 8)
	cfg := testPipelineConfig()

	orig, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for i := 0; i < 7; i++ {
		if _, err := orig.ProcessInterval(trace[i]); err != nil {
			t.Fatal(err)
		}
	}
	orig.ObserveBatch(trace[7][:1200])

	snap := orig.Snapshot()
	enc := wire.EncodePipelineSnapshot(snap)
	dec, err := wire.DecodePipelineSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(dec, snap) {
		t.Fatal("decoded pipeline snapshot differs from the original")
	}
	if enc2 := wire.EncodePipelineSnapshot(dec); !bytes.Equal(enc, enc2) {
		t.Fatal("re-encoding the decoded snapshot changed the bytes")
	}

	restored, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreSnapshot(dec); err != nil {
		t.Fatalf("restore: %v", err)
	}
	alarmed := false
	for i := 7; i < len(trace); i++ {
		rest := trace[i]
		if i == 7 {
			rest = trace[i][1200:]
		}
		orig.ObserveBatch(rest)
		restored.ObserveBatch(rest)
		wantRep, err := orig.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := restored.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		alarmed = alarmed || wantRep.Alarm
		if got, want := renderReport(gotRep), renderReport(wantRep); got != want {
			t.Fatalf("interval %d diverged after restore:\n got %s\nwant %s", i, got, want)
		}
	}
	if !alarmed {
		t.Fatal("post-restore intervals never alarmed; extraction path was not compared")
	}
}

// TestDrainAbsorbEquivalence pins the agent-side primitive: draining a
// pipeline's open interval and absorbing the (decoded) snapshot into a
// second pipeline leaves the second exactly as if it had observed the
// flows itself, and leaves the drained pipeline empty.
func TestDrainAbsorbEquivalence(t *testing.T) {
	trace := testTrace(6, 1500, 4)
	cfg := testPipelineConfig()

	direct, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	primary, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	agent, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	for i, recs := range trace {
		direct.ObserveBatch(recs)
		agent.ObserveBatch(recs)

		// The agent never closes detection, so its snapshot is its open
		// interval alone: encode it in the lean form, then drain.
		enc, err := wire.EncodeOpenIntervalSnapshot(agent.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		agent.DrainOpenInterval()
		dec, err := wire.DecodeOpenIntervalSnapshot(enc)
		if err != nil {
			t.Fatal(err)
		}
		oi := core.OpenInterval{Buffer: dec.Buffer}
		for _, ds := range dec.Bank.Detectors {
			oi.Clones = append(oi.Clones, ds.Clones)
		}
		if err := primary.AbsorbOpenInterval(oi); err != nil {
			t.Fatal(err)
		}

		wantRep, err := direct.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := primary.EndInterval()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReport(gotRep), renderReport(wantRep); got != want {
			t.Fatalf("interval %d: drained/absorbed report diverged:\n got %s\nwant %s", i, got, want)
		}
	}
	// The drained agent must be empty: closing its interval reports no
	// flows.
	rep, err := agent.EndInterval()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalFlows != 0 {
		t.Fatalf("drained pipeline still buffers %d flows", rep.TotalFlows)
	}
}

// TestDecodeRejects exercises the codec's corruption handling: version
// mismatches, truncation, and trailing bytes must all fail cleanly.
func TestDecodeRejects(t *testing.T) {
	p, err := core.New(testPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.ObserveBatch(testTrace(1, 200, 0)[0])
	enc := wire.EncodePipelineSnapshot(p.Snapshot())

	if _, err := wire.DecodePipelineSnapshot(nil); err == nil {
		t.Error("decoding empty input succeeded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := wire.DecodePipelineSnapshot(bad); err == nil {
		t.Error("decoding a wrong codec version succeeded")
	}
	if _, err := wire.DecodePipelineSnapshot(enc[:len(enc)/2]); err == nil {
		t.Error("decoding truncated input succeeded")
	}
	if _, err := wire.DecodePipelineSnapshot(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("decoding input with trailing bytes succeeded")
	}
	// Non-minimal varints (0x80 0x00 encodes 0 in two bytes) must be
	// rejected: the codec is canonical, so decode accepts exactly what
	// encode produces — the FuzzWireRoundTrip re-encode invariant.
	if _, err := wire.DecodePipelineSnapshot([]byte{1, 0x80, 0x00, 0x00}); err == nil {
		t.Error("decoding a non-minimal uvarint succeeded")
	}
}

// TestConfigDigest pins the handshake contract: implicit defaults and
// their explicit spellings digest identically, while any change to the
// histogram space (seed, bins, features) digests differently.
func TestConfigDigest(t *testing.T) {
	implicit := core.Config{}
	explicit := core.Config{
		Features: flow.DetectorFeatures[:],
		Detector: detector.Config{}.WithDefaults(),
	}
	if wire.ConfigDigest(implicit) != wire.ConfigDigest(explicit) {
		t.Error("defaulted and explicit configurations digest differently")
	}
	base := testPipelineConfig()
	variants := []core.Config{
		{Detector: detector.Config{Bins: 512, TrainIntervals: 4, Seed: 3}},
		{Detector: detector.Config{Bins: 256, TrainIntervals: 4, Seed: 4}},
		{Detector: detector.Config{Bins: 256, TrainIntervals: 5, Seed: 3}},
		{Features: []flow.FeatureKind{flow.SrcIP}, Detector: base.Detector},
	}
	for i, v := range variants {
		if wire.ConfigDigest(v) == wire.ConfigDigest(base) {
			t.Errorf("variant %d digests equal to base", i)
		}
	}
}

// --- raw-stream helpers for the error-path tests ---
//
// These speak the wire protocol byte-for-byte, independent of the
// Agent implementation, so malformed streams can be crafted exactly.

// Protocol constants mirrored from the wire package (which keeps them
// unexported); the error-path tests pin them as wire-format facts.
const (
	rawFrameHello   = 1
	rawFrameBye     = 3
	rawFrameHelloOK = 6
	rawFrameError   = 7
	rawFrameByeOK   = 8
)

// writeRawFrame writes one length-prefixed frame: uint32 big-endian
// payload length including the type byte, the type byte, the payload.
func writeRawFrame(t *testing.T, w io.Writer, typ byte, payload []byte) {
	t.Helper()
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(append(hdr, payload...)); err != nil {
		t.Fatalf("writing raw frame: %v", err)
	}
}

// readRawFrame reads one frame off a raw connection.
func readRawFrame(conn io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > 1<<30 {
		return 0, nil, fmt.Errorf("frame length %d out of range", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

// rawHello builds a Hello payload: magic, uvarint version and agent ID,
// the zigzag-varint resume offset (absent from the retired v2 Hello),
// and the trailing 8-byte digest.
func rawHello(magic string, version, agentID uint64, resume int64, digest uint64) []byte {
	p := []byte(magic)
	p = binary.AppendUvarint(p, version)
	p = binary.AppendUvarint(p, agentID)
	if version >= 3 {
		p = binary.AppendVarint(p, resume)
	}
	return binary.LittleEndian.AppendUint64(p, digest)
}

// errorPathCollector serves a 1-agent collector session for one
// error-path case and returns the listener plus channels carrying the
// emitted report count and Serve's error.
func errorPathCollector(t *testing.T, cfg core.Config) (net.Listener, *wire.Collector, <-chan int, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coll, err := wire.NewCollector(cfg, wire.CollectorConfig{Agents: 1})
	if err != nil {
		t.Fatal(err)
	}
	emitted := make(chan int, 1)
	serveErr := make(chan error, 1)
	go func() {
		n := 0
		serveErr <- coll.Serve(context.Background(), ln, func(*core.Report) error {
			n++
			emitted <- n
			return nil
		})
	}()
	return ln, coll, emitted, serveErr
}

// TestCollectorRejectsMalformedStreams drives the collector's framing
// and handshake error paths over real connections: each malformed
// stream must be rejected — with a typed frameError reply where the
// protocol defines one, a silent close otherwise — WITHOUT killing the
// session, which a well-behaved agent then finishes normally.
func TestCollectorRejectsMalformedStreams(t *testing.T) {
	cfg := testPipelineConfig()
	digest := wire.ConfigDigest(cfg)

	cases := []struct {
		name string
		// send writes the malformed bytes; it returns true when a
		// frameError reply is expected (vs a silent connection close).
		send     func(t *testing.T, conn net.Conn)
		wantCode uint64
		wantMsg  string
		silent   bool
	}{
		{
			name: "hello protocol version too old",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 1, 0, 0, digest))
			},
			wantCode: 3, // errCodeBadVersion
			wantMsg:  "unsupported protocol version 1",
		},
		{
			name: "hello protocol version too new",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 99, 0, 0, digest))
			},
			wantCode: 3,
			wantMsg:  "unsupported protocol version 99",
		},
		{
			name: "hello bad magic",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("NOPE", 3, 0, 0, digest))
			},
			wantCode: 0, // errCodeOther
			wantMsg:  "bad hello magic",
		},
		{
			name: "hello config digest mismatch",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 3, 0, 0, digest+1))
			},
			wantCode: 1, // errCodeConfigMismatch
			wantMsg:  "config mismatch: agent=",
		},
		{
			name: "hello agent ID out of range",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 3, 5, 0, digest))
			},
			wantCode: 2, // errCodeBadAgentID
			wantMsg:  "out of range",
		},
		{
			name: "truncated frame",
			send: func(t *testing.T, conn net.Conn) {
				// A header promising 64 payload bytes, then only 3 and EOF.
				hdr := []byte{0, 0, 0, 64, rawFrameHello, 'A', 'X', 'W'}
				if _, err := conn.Write(hdr); err != nil {
					t.Fatal(err)
				}
				conn.(*net.TCPConn).CloseWrite()
			},
			silent: true,
		},
		{
			name: "oversized frame",
			send: func(t *testing.T, conn net.Conn) {
				// Length 1 GiB + 1: over maxFrameLen, rejected at the header.
				if _, err := conn.Write([]byte{0x40, 0, 0, 1, rawFrameHello}); err != nil {
					t.Fatal(err)
				}
			},
			silent: true,
		},
		{
			name: "zero-length frame",
			send: func(t *testing.T, conn net.Conn) {
				if _, err := conn.Write([]byte{0, 0, 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
			},
			silent: true,
		},
		{
			name: "first frame not hello",
			send: func(t *testing.T, conn net.Conn) {
				writeRawFrame(t, conn, rawFrameBye, nil)
			},
			silent: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, coll, emitted, serveErr := errorPathCollector(t, cfg)
			defer coll.Close()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			tc.send(t, conn)
			if tc.silent {
				// The collector must close the connection without a reply.
				if typ, _, err := readRawFrame(conn); err == nil {
					t.Fatalf("expected silent close, got frame type %d", typ)
				}
			} else {
				code, msg := readRejection(t, conn)
				if code != tc.wantCode {
					t.Errorf("error code = %d, want %d", code, tc.wantCode)
				}
				if !strings.Contains(msg, tc.wantMsg) {
					t.Errorf("error message %q does not contain %q", msg, tc.wantMsg)
				}
			}
			conn.Close()

			// The rejection must not have hurt the session: a well-behaved
			// agent connects, ends cleanly, and the session closes with the
			// empty-stream parity report.
			agent, err := wire.DialAgent(ln.Addr().String(), 0, cfg, wire.AgentOptions{})
			if err != nil {
				t.Fatalf("well-behaved agent after rejection: %v", err)
			}
			if err := agent.Close(); err != nil {
				t.Fatalf("well-behaved agent close: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Fatalf("collector: %v", err)
			}
			if n := <-emitted; n != 1 {
				t.Fatalf("session emitted %d reports, want 1 parity report", n)
			}
		})
	}
}

// TestDuplicateAgentIDNewestWins pins the replacement-connection
// semantics: a second Hello for an already-connected agent ID takes
// over the stream (the legitimate owner of an ID is whoever can still
// dial), and the collector closes the superseded connection.
func TestDuplicateAgentIDNewestWins(t *testing.T) {
	cfg := testPipelineConfig()
	digest := wire.ConfigDigest(cfg)
	ln, coll, emitted, serveErr := errorPathCollector(t, cfg)
	defer coll.Close()

	connA, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, connA, rawFrameHello, rawHello("AXWP", 3, 0, 0, digest))
	if typ, _, err := readRawFrame(connA); err != nil || typ != rawFrameHelloOK {
		t.Fatalf("first hello reply: type %d, err %v; want HelloOK", typ, err)
	}

	connB, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, connB, rawFrameHello, rawHello("AXWP", 3, 0, 0, digest))
	if typ, _, err := readRawFrame(connB); err != nil || typ != rawFrameHelloOK {
		t.Fatalf("second hello reply: type %d, err %v; want HelloOK", typ, err)
	}

	// The first connection is superseded: the collector closes it, so
	// the next read fails instead of delivering a frame.
	if typ, _, err := readRawFrame(connA); err == nil {
		t.Fatalf("superseded connection still delivered frame type %d", typ)
	}
	connA.Close()

	// The replacement connection owns the stream: its Bye ends the
	// session and is confirmed with ByeOK.
	writeRawFrame(t, connB, rawFrameBye, nil)
	if typ, _, err := readRawFrame(connB); err != nil || typ != rawFrameByeOK {
		t.Fatalf("bye reply: type %d, err %v; want ByeOK", typ, err)
	}
	connB.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if n := <-emitted; n != 1 {
		t.Fatalf("session emitted %d reports, want 1 parity report", n)
	}
}

// readRejection reads the collector's frameError reply on conn and
// returns its code and message.
func readRejection(t *testing.T, conn net.Conn) (code uint64, msg string) {
	t.Helper()
	typ, payload, err := readRawFrame(conn)
	if err != nil {
		t.Fatalf("reading rejection reply: %v", err)
	}
	if typ != rawFrameError {
		t.Fatalf("reply frame type = %d, want %d (error)", typ, rawFrameError)
	}
	code, n := binary.Uvarint(payload)
	if n <= 0 {
		t.Fatalf("malformed error payload % x", payload)
	}
	return code, string(payload[n:])
}

// TestV2AgentRejected pins the retirement of protocol v2: a v2 Hello
// (no resume offset) is refused with errCodeBadVersion instead of being
// accepted as a one-way stream, and the refusal does not hurt the
// session, which a v3 agent then ends with the empty-stream parity
// report.
func TestV2AgentRejected(t *testing.T) {
	cfg := testPipelineConfig()
	ln, coll, emitted, serveErr := errorPathCollector(t, cfg)
	defer coll.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 2, 0, 0, wire.ConfigDigest(cfg)))
	code, msg := readRejection(t, conn)
	if code != 3 { // errCodeBadVersion
		t.Errorf("error code = %d, want 3", code)
	}
	if !strings.Contains(msg, "unsupported protocol version 2") {
		t.Errorf("error message %q does not name version 2", msg)
	}
	conn.Close()

	agent, err := wire.DialAgent(ln.Addr().String(), 0, cfg, wire.AgentOptions{})
	if err != nil {
		t.Fatalf("v3 agent after v2 rejection: %v", err)
	}
	if err := agent.Close(); err != nil {
		t.Fatalf("v3 agent close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if n := <-emitted; n != 1 {
		t.Fatalf("session emitted %d reports, want 1 parity report", n)
	}
}

// TestRetiredSnapshotFrameRejected: interval frame type 2 (the retired
// full-snapshot frame) is a protocol error on an accepted stream. The
// collector answers it with a frameError naming the type and stops
// waiting for the agent, so the one-agent session ends with its
// empty-stream parity report.
func TestRetiredSnapshotFrameRejected(t *testing.T) {
	cfg := testPipelineConfig()
	ln, coll, emitted, serveErr := errorPathCollector(t, cfg)
	defer coll.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeRawFrame(t, conn, rawFrameHello, rawHello("AXWP", 3, 0, 0, wire.ConfigDigest(cfg)))
	if typ, _, err := readRawFrame(conn); err != nil || typ != rawFrameHelloOK {
		t.Fatalf("hello reply: type %d, err %v; want HelloOK", typ, err)
	}
	snap, err := wire.EncodeOpenIntervalSnapshot(core.PipelineSnapshot{})
	if err != nil {
		t.Fatal(err)
	}
	writeRawFrame(t, conn, 2, append(binary.AppendVarint(nil, 900000), snap...))
	code, msg := readRejection(t, conn)
	if code != 0 { // errCodeOther
		t.Errorf("error code = %d, want 0", code)
	}
	if !strings.Contains(msg, "unexpected frame type 2") {
		t.Errorf("error message %q does not name frame type 2", msg)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("collector: %v", err)
	}
	if n := <-emitted; n != 1 {
		t.Fatalf("session emitted %d reports, want 1 parity report", n)
	}
}
