package wire

import (
	"context"
	"fmt"
	"net"
	"os"
	"slices"
	"time"

	"anomalyx/internal/core"
	"anomalyx/internal/wire/metrics"
)

// Hierarchical federation. Because equal-seed histogram clones are
// exact mergeable sketches, absorbing open intervals is associative and
// commutative in the histogram domain (per-bin counter addition) while
// the flow buffers concatenate in absorb order. A relay node therefore
// runs a Collector facing its children and an Agent facing its parent:
// each boundary it absorbs its children's frames in child-ID order,
// drains the merged open interval, and ships it upstream as one
// frameRelayInterval. As long as every tier absorbs in ascending global
// leaf order — which the LeafBase numbering guarantees for contiguous
// trees — the root's reports are byte-identical to a flat deployment of
// the same leaves, and to a single process running them as local
// shards. Only the root owns detection history and emits reports.
//
// The ordering rule that makes a relay crash-safe: a child's frame is
// acked only after the merged frame containing it is acked by the
// parent, or durably written to the relay's checkpoint. Until then the
// boundary survives in either the children's replay buffers or the
// relay checkpoint's held frames, so no tier of the tree can lose or
// duplicate a boundary.

// maxLeafSpan bounds a relay frame's declared leaf span (1M leaves);
// anything larger is treated as stream corruption, keeping a malformed
// header from inflating Partial attribution or overflowing arithmetic.
const maxLeafSpan = 1 << 20

// appendRelayHeader encodes the relay-frame header that follows the
// boundary and codec version: uvarint spanLo, uvarint spanLen (≥ 1),
// then the missing-leaf list as a uvarint count and strictly ascending
// uvarint global leaf IDs, each within [spanLo, spanLo+spanLen).
func appendRelayHeader(b []byte, spanLo, spanLen int, missing []int) []byte {
	b = appendUvarint(b, uint64(spanLo))
	b = appendUvarint(b, uint64(spanLen))
	b = appendUvarint(b, uint64(len(missing)))
	for _, id := range missing {
		b = appendUvarint(b, uint64(id))
	}
	return b
}

// decodeRelayHeader parses and validates a relay-frame header.
func decodeRelayHeader(r *reader) (spanLo, spanLen int, missing []int) {
	lo := r.uvarint()
	n := r.uvarint()
	if r.err() == nil && (n < 1 || lo > maxLeafSpan || n > maxLeafSpan) {
		r.fail("relay leaf span [%d,%d+%d) out of range", lo, lo, n)
		return 0, 0, nil
	}
	spanLo, spanLen = int(lo), int(n)
	count := r.length(1)
	if r.err() == nil && count > spanLen {
		r.fail("relay missing-leaf count %d exceeds span length %d", count, spanLen)
		return 0, 0, nil
	}
	prev := -1
	for i := 0; i < count; i++ {
		id := r.uvarint()
		if r.err() != nil {
			return 0, 0, nil
		}
		if id < uint64(spanLo) || id >= uint64(spanLo+spanLen) || int(id) <= prev {
			r.fail("relay missing leaf %d not ascending within span [%d,%d)", id, spanLo, spanLo+spanLen)
			return 0, 0, nil
		}
		prev = int(id)
		missing = append(missing, int(id))
	}
	return spanLo, spanLen, missing
}

// decodeIntervalPayload parses the payload of one interval-bearing
// frame (frameOpenInterval or frameRelayInterval) into the queued form
// the merge loop absorbs.
func decodeIntervalPayload(typ byte, payload []byte) (queuedFrame, error) {
	rd := &reader{buf: payload}
	boundary := rd.varint()
	if v := rd.byte(); rd.err() == nil && v != codecVersion {
		rd.fail("unsupported codec version %d (want %d)", v, codecVersion)
	}
	frame := queuedFrame{boundary: boundary}
	if typ == frameRelayInterval {
		frame.spanLo, frame.spanLen, frame.missing = decodeRelayHeader(rd)
	}
	frame.oi = decodeOpenIntervalBody(rd)
	rd.expectEOF()
	if rd.err() == nil && boundary <= 0 {
		rd.fail("non-positive snapshot boundary %d", boundary)
	}
	if rd.err() != nil {
		return queuedFrame{}, rd.err()
	}
	return frame, nil
}

// appendRelayPayload encodes a complete frameRelayInterval payload —
// what ship produces from the same parts. It exists so the fuzz target
// can assert decode∘encode is the identity on accepted payloads.
func appendRelayPayload(b []byte, boundary int64, spanLo, spanLen int, missing []int, oi core.OpenInterval) []byte {
	b = appendVarint(b, boundary)
	b = append(b, codecVersion)
	b = appendRelayHeader(b, spanLo, spanLen, missing)
	return appendOpenInterval(b, oi)
}

// relayCheckpointMagic starts every relay checkpoint file, distinct
// from the collector's so the two cannot be confused by a bad path.
var relayCheckpointMagic = [4]byte{'A', 'X', 'R', 'P'}

// relayCheckpoint is a relay's durable state: the merge counters and
// per-child table (as in a collector checkpoint, but with no pipeline
// snapshot — a relay's primary is fully drained at every close), plus
// the shipped-but-unacked upstream frames, re-offered on restart. A
// relay checkpoints after shipping each merged frame and before acking
// its children, so a crash between ship and upstream ack loses nothing.
type relayCheckpoint struct {
	lastClosed int64
	emitted    int64
	absorbed   []int64       // per-child absorbed boundary, indexed by local ID
	statuses   []agentStatus // per-child status at checkpoint time
	held       []replayEntry // upstream frames not yet acked, boundary ascending
}

// appendRelayCheckpoint encodes a relay checkpoint.
func appendRelayCheckpoint(b []byte, c relayCheckpoint) []byte {
	b = append(b, relayCheckpointMagic[:]...)
	b = append(b, codecVersion)
	b = appendVarint(b, c.lastClosed)
	b = appendVarint(b, c.emitted)
	b = appendUvarint(b, uint64(len(c.absorbed)))
	for i := range c.absorbed {
		b = appendVarint(b, c.absorbed[i])
		b = append(b, byte(c.statuses[i]))
	}
	b = appendUvarint(b, uint64(len(c.held)))
	for _, e := range c.held {
		b = append(b, e.typ)
		b = appendVarint(b, e.boundary)
		b = appendUvarint(b, uint64(len(e.payload)))
		b = append(b, e.payload...)
	}
	return b
}

// decodeRelayCheckpoint parses a relay checkpoint file's contents.
func decodeRelayCheckpoint(payload []byte) (relayCheckpoint, error) {
	r := &reader{buf: payload}
	var magic [4]byte
	for i := range magic {
		magic[i] = r.byte()
	}
	if r.err() == nil && magic != relayCheckpointMagic {
		return relayCheckpoint{}, fmt.Errorf("wire: bad relay checkpoint magic %q", magic[:])
	}
	if v := r.byte(); r.err() == nil && v != codecVersion {
		r.fail("unsupported relay checkpoint codec version %d (want %d)", v, codecVersion)
	}
	var c relayCheckpoint
	c.lastClosed = r.varint()
	c.emitted = r.varint()
	n := r.length(2)
	c.absorbed = make([]int64, n)
	c.statuses = make([]agentStatus, n)
	for i := 0; i < n; i++ {
		c.absorbed[i] = r.varint()
		s := agentStatus(r.byte())
		if r.err() == nil && s > statusBye {
			r.fail("invalid agent status %d", s)
		}
		c.statuses[i] = s
	}
	held := r.length(3)
	prev := int64(0)
	for i := 0; i < held; i++ {
		var e replayEntry
		e.typ = r.byte()
		if r.err() == nil && e.typ != frameOpenInterval && e.typ != frameRelayInterval {
			r.fail("held frame %d has non-interval type %d", i, e.typ)
		}
		e.boundary = r.varint()
		if r.err() == nil && e.boundary <= prev {
			r.fail("held frame boundary %d not after %d", e.boundary, prev)
		}
		prev = e.boundary
		e.payload = r.bytes(r.length(1))
		if e.payload == nil {
			e.payload = []byte{}
		}
		c.held = append(c.held, e)
	}
	r.expectEOF()
	if r.err() != nil {
		return relayCheckpoint{}, r.err()
	}
	return c, nil
}

// writeRelayCheckpointFile atomically replaces path with the encoded
// relay checkpoint (temp + rename, as writeCheckpointFile).
func writeRelayCheckpointFile(path string, c relayCheckpoint) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, appendRelayCheckpoint(nil, c), 0o644); err != nil {
		return fmt.Errorf("wire: writing relay checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wire: committing relay checkpoint: %w", err)
	}
	return nil
}

// loadRelayCheckpointFile reads and decodes the relay checkpoint at
// path.
func loadRelayCheckpointFile(path string) (relayCheckpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return relayCheckpoint{}, fmt.Errorf("wire: reading relay checkpoint: %w", err)
	}
	return decodeRelayCheckpoint(b)
}

// forwarder is a collector's forward mode: instead of closing detection
// and emitting reports, every closed boundary is drained and shipped
// upstream through agent. Non-nil fwd switches the merge loop's close
// path; see closeBoundaryForward.
type forwarder struct {
	agent           *Agent
	spanLo, spanLen int
	ckptPath        string
	restored        *relayCheckpoint
}

// RelayConfig parameterizes a relay node: its child-facing collector
// session and its parent-facing agent stream.
type RelayConfig struct {
	// Children is the relay's fan-in; child agent IDs are local,
	// in [0, Children).
	Children int
	// AgentID is the relay's own ID on its parent, in [0, parent fan-in).
	AgentID int
	// Parent is the parent collector's (or parent relay's) address.
	Parent string
	// LeafBase is the first global leaf ID of this relay's span; the
	// relay's children cover [LeafBase, LeafBase+Children). 0 derives
	// AgentID·Children — the natural numbering for a balanced tree,
	// which makes the root's absorb order identical to a flat
	// deployment's. Set it explicitly for irregular trees.
	LeafBase int
	// Policy selects the partial-interval behavior for the child-facing
	// session; see PartialPolicy.
	Policy PartialPolicy
	// HoldTimeout bounds HoldWithTimeout waits, as in CollectorConfig.
	HoldTimeout time.Duration
	// CheckpointPath, when non-empty, makes the relay write its durable
	// state there after shipping each merged frame and before acking its
	// children — children are then settled immediately instead of
	// waiting for the upstream ack.
	CheckpointPath string
	// Resume makes Serve rehydrate from CheckpointPath before accepting
	// children: merge counters, per-child dedup lines, and the held
	// upstream frames continue where the checkpointed relay stopped.
	Resume bool
	// MetricsAddr, when non-empty, serves the relay's expvar metrics
	// over HTTP on that address for the lifetime of Serve.
	MetricsAddr string
	// Retry is the upstream redial policy; see RetryConfig.
	Retry RetryConfig
	// ReplayBuffer bounds the upstream replay buffer, as in
	// AgentOptions.
	ReplayBuffer int
	// Dialer overrides the upstream dial (tests move the parent between
	// listeners); nil dials Parent over TCP.
	Dialer func() (net.Conn, error)

	// queueCap tunes the child-facing ingest credits, as in
	// CollectorConfig. Unexported: tests set it.
	queueCap int
}

// Relay is a mid-tier federation node: a Collector facing its children
// and an Agent facing its parent. It absorbs each child boundary via
// the same merge path a root collector uses, but instead of closing
// detection it drains the merged open interval and ships it upstream —
// the parent (ultimately the root) owns all detection state. Both faces
// reuse the ack/replay/redial machinery, with the relay's ack to a
// child gated on the upstream ack of the merged frame (or on a durable
// relay checkpoint), so no boundary is lost to a relay crash.
type Relay struct {
	c  *Collector
	rc RelayConfig
}

// NewRelay builds a relay node. cfg must be the same pipeline
// configuration the whole tree runs; its digest is checked on both
// faces' handshakes.
func NewRelay(cfg core.Config, rc RelayConfig) (*Relay, error) {
	if rc.Children < 1 {
		return nil, fmt.Errorf("wire: relay needs at least 1 child, got %d", rc.Children)
	}
	if rc.AgentID < 0 {
		return nil, fmt.Errorf("wire: negative relay agent ID %d", rc.AgentID)
	}
	if rc.Parent == "" && rc.Dialer == nil {
		return nil, fmt.Errorf("wire: relay needs a parent address")
	}
	if rc.Resume && rc.CheckpointPath == "" {
		return nil, fmt.Errorf("wire: Resume requires CheckpointPath")
	}
	if rc.LeafBase == 0 {
		rc.LeafBase = rc.AgentID * rc.Children
	}
	if rc.LeafBase+rc.Children > maxLeafSpan {
		return nil, fmt.Errorf("wire: relay leaf span [%d,%d) exceeds %d",
			rc.LeafBase, rc.LeafBase+rc.Children, maxLeafSpan)
	}
	c, err := NewCollector(cfg, CollectorConfig{
		Agents:      rc.Children,
		Policy:      rc.Policy,
		HoldTimeout: rc.HoldTimeout,
		MetricsAddr: rc.MetricsAddr,
		queueCap:    rc.queueCap,
	})
	if err != nil {
		return nil, err
	}
	dialer := rc.Dialer
	if dialer == nil {
		addr := rc.Parent
		dialer = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	up := newAgent(rc.AgentID, cfg, AgentOptions{
		Retry:        rc.Retry,
		ReplayBuffer: rc.ReplayBuffer,
		Dialer:       dialer,
	}.withDefaults())
	c.fwd = &forwarder{
		agent:    up,
		spanLo:   rc.LeafBase,
		spanLen:  rc.Children,
		ckptPath: rc.CheckpointPath,
	}
	if rc.Resume {
		cp, err := loadRelayCheckpointFile(rc.CheckpointPath)
		if err != nil {
			c.Close()
			return nil, err
		}
		if len(cp.absorbed) != rc.Children {
			c.Close()
			return nil, fmt.Errorf("wire: relay checkpoint has %d children, relay configured for %d",
				len(cp.absorbed), rc.Children)
		}
		up.preloadReplay(cp.held)
		c.fwd.restored = &cp
	}
	return &Relay{c: c, rc: rc}, nil
}

// Metrics returns the relay's metrics surface: the child-facing session
// counters plus the relay's frames_relayed/frames_held.
func (r *Relay) Metrics() *metrics.Session { return r.c.met }

// Serve runs the relay on ln until every child has ended or been
// abandoned: dial the parent (failing fast on a rejected handshake,
// e.g. a config-digest mismatch), run the child-facing session with
// every closed boundary forwarded upstream, then end the upstream
// stream cleanly with Bye. On a session error the upstream connection
// is severed without Bye, so the parent keeps the relay resumable.
func (r *Relay) Serve(ctx context.Context, ln net.Listener) error {
	up := r.c.fwd.agent
	if err := up.connect(); err != nil {
		ln.Close()
		return err
	}
	if err := r.c.Serve(ctx, ln, nil); err != nil {
		up.abort()
		return err
	}
	return up.Close()
}

// Close releases the relay's pipelines and severs any upstream
// connection that Serve left (it must not be called while Serve runs).
func (r *Relay) Close() {
	r.c.fwd.agent.abort()
	r.c.Close()
}

// restoreForward rehydrates the child-facing session from a relay
// checkpoint: merge counters and the per-child table, with no pipeline
// restore — the relay's primary is empty between boundaries by
// construction.
func (c *Collector) restoreForward(s *session, cp *relayCheckpoint) {
	s.lastClosed = cp.lastClosed
	s.emitted = cp.emitted
	// Children were settled through lastClosed when the checkpoint was
	// written (checkpointed relays ack immediately after the write).
	s.acked = cp.lastClosed
	for id, st := range s.ag {
		st.absorbed = cp.absorbed[id]
		st.emittedAtAbsorb = cp.emitted
		switch cp.statuses[id] {
		case statusBye:
			st.status = statusBye
		case statusDead:
			st.status = statusDead
		default:
			st.status = statusDown
		}
		c.met.Agent(id).SetStatus(st.status.metricsName())
	}
	c.met.SetLastClosed(s.lastClosed)
	c.met.SetFramesHeld(int64(c.fwd.agent.unackedFrames()))
}

// watchUpstreamAcks runs beside a forwarding merge loop, turning the
// upstream agent's ack progress into merge events: the merge loop
// settles children (ack-after-upstream) and updates the held-frames
// gauge. It exits when the upstream stream ends or the session does.
func (c *Collector) watchUpstreamAcks(s *session) {
	var last int64
	for {
		line, ok := c.fwd.agent.waitAckedAbove(last)
		if !ok {
			return
		}
		last = line
		select {
		case s.events <- event{kind: evUpstreamAck, boundary: line}:
		case <-s.done:
			return
		}
	}
}

// closeBoundaryForward is the forward-mode close path: absorb every
// child's frame for boundary b in child-ID order, compute the global
// missing-leaf list (expanding silent child relays to their spans),
// drain the merged open interval, ship it upstream, checkpoint when
// configured, and settle the children — immediately after a durable
// checkpoint, otherwise only up to the upstream ack line.
func (c *Collector) closeBoundaryForward(s *session, b int64) error {
	var frameMissing []int
	for id, st := range s.ag {
		if len(st.queue) == 0 || st.queue[0].boundary != b {
			continue
		}
		fr := st.queue[0]
		if err := c.primary.AbsorbOpenInterval(fr.oi); err != nil {
			return fmt.Errorf("wire: absorbing child %d: %w", id, err)
		}
		frameMissing = append(frameMissing, fr.missing...)
		st.queue[0] = queuedFrame{}
		st.queue = st.queue[1:]
		st.absorbed = b
		st.emittedAtAbsorb = s.emitted + 1
		st.refund()
		c.met.Agent(id).SetQueueDepth(int64(len(st.queue)))
	}
	missing := s.missingFor(b, frameMissing, c.fwd.spanLo)
	oi := c.primary.DrainOpenInterval()
	shipped, err := c.fwd.agent.shipRelayInterval(b, c.fwd.spanLo, c.fwd.spanLen, missing, oi)
	if err != nil {
		return fmt.Errorf("wire: forwarding boundary %d: %w", b, err)
	}
	s.lastClosed = b
	s.emitted++
	c.met.SetLastClosed(b)
	c.met.IncEmitted()
	if shipped {
		c.met.IncFramesRelayed()
	}
	c.met.SetFramesHeld(int64(c.fwd.agent.unackedFrames()))
	for id, st := range s.ag {
		c.met.Agent(id).SetLag(s.emitted - st.emittedAtAbsorb)
	}
	if c.fwd.ckptPath != "" {
		if err := c.writeRelayCheckpoint(s); err != nil {
			return err
		}
		s.acked = b
	} else {
		s.acked = min(c.fwd.agent.Acked(), b)
	}
	c.ackChildren(s)
	return nil
}

// missingFor computes the global leaf IDs boundary b closes without:
// the IDs carried by child relay frames, plus every disconnected child
// with nothing queued and nothing absorbed for b — expanded to its leaf
// span when the child is itself a relay, mapped through spanLo when it
// is a direct child of a relay, or reported as its own ID at the root.
// The result is sorted and deduplicated; nil when complete.
func (s *session) missingFor(b int64, frameMissing []int, spanLo int) []int {
	missing := frameMissing
	for id, st := range s.ag {
		if (st.status != statusDown && st.status != statusDead) || len(st.queue) > 0 || st.absorbed >= b {
			continue
		}
		if st.spanLen > 0 {
			for leaf := st.spanLo; leaf < st.spanLo+st.spanLen; leaf++ {
				missing = append(missing, leaf)
			}
		} else {
			missing = append(missing, spanLo+id)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	slices.Sort(missing)
	return slices.Compact(missing)
}

// ackChildren pushes the session's settled line (s.acked) to every
// connected child — cumulative, so late children catch up on their next
// ack.
func (c *Collector) ackChildren(s *session) {
	if s.acked <= 0 {
		return
	}
	for id, st := range s.ag {
		if st.ackCh != nil {
			pushLatest(st.ackCh, ackOf(s.acked))
			c.met.Agent(id).SetLastAcked(s.acked)
		}
	}
}

// writeRelayCheckpoint persists the relay's durable state.
func (c *Collector) writeRelayCheckpoint(s *session) error {
	cp := relayCheckpoint{
		lastClosed: s.lastClosed,
		emitted:    s.emitted,
		absorbed:   make([]int64, len(s.ag)),
		statuses:   make([]agentStatus, len(s.ag)),
		held:       c.fwd.agent.replayState(),
	}
	for id, st := range s.ag {
		cp.absorbed[id] = st.absorbed
		cp.statuses[id] = st.status
	}
	return writeRelayCheckpointFile(c.fwd.ckptPath, cp)
}
