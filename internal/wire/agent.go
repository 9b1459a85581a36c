package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"

	"anomalyx/internal/core"
	"anomalyx/internal/flow"
	"anomalyx/internal/shard"
)

// AgentOptions parameterizes the survivable agent session: the redial
// policy and the replay-buffer bound. The zero value is a working
// default (8 redials with jittered backoff, 64 buffered frames).
type AgentOptions struct {
	// Retry is the redial policy after a lost connection; see
	// RetryConfig for zero-value defaults.
	Retry RetryConfig
	// ReplayBuffer bounds how many shipped-but-unacked interval frames
	// the agent retains for replay after a reconnect. When the buffer
	// is full, shipping blocks until the collector acks (backpressure
	// through the engine) — frames are never silently dropped. 0 takes
	// the default (64).
	ReplayBuffer int
	// Dialer opens a new collector connection for the initial connect
	// and every redial. DialAgent fills it with a TCP dial of its addr;
	// leave it nil with NewAgent and the agent cannot redial (a lost
	// connection is then a permanent error).
	Dialer func() (net.Conn, error)
}

// withDefaults resolves the zero values.
func (o AgentOptions) withDefaults() AgentOptions {
	o.Retry = o.Retry.withDefaults()
	if o.ReplayBuffer == 0 {
		o.ReplayBuffer = 64
	}
	if o.ReplayBuffer < 1 {
		o.ReplayBuffer = 1
	}
	return o
}

// replayEntry is one shipped interval frame retained until acked: the
// frame type, its grid boundary, and the encoded payload ready to be
// rewritten verbatim on a replacement connection.
type replayEntry struct {
	typ      byte
	boundary int64
	payload  []byte
}

// Agent is the sending half of the protocol: it owns one logical stream
// to a collector that survives connection loss. Shipped interval frames
// stay in a bounded replay buffer until the collector acks their
// boundary; on a broken connection the agent redials with jittered
// exponential backoff, re-Hellos with a resume offset, and resends the
// unacked frames — the collector deduplicates, so the report stream is
// unaffected by drops and reconnects (determinism: replayed boundaries
// absorb exactly once, in the same agent-ID order as an undisturbed
// run). Methods are serialized by an internal mutex; frames appear on
// each connection in ship order, the per-agent boundary monotonicity
// the collector checks.
type Agent struct {
	id     int
	digest uint64
	opts   AgentOptions
	rng    *rand.Rand // seeded jitter source; never influences report bytes

	mu   sync.Mutex
	cond *sync.Cond // signals ack progress and connection-state changes
	conn net.Conn   // nil while disconnected
	w    *bufio.Writer
	gen  int // connection generation; stale readLoops see a mismatch and exit

	replay     []replayEntry // unacked frames, boundary ascending
	acked      int64         // highest collector-acked boundary
	reconnects int
	permErr    error // the stream is dead after it
	closed     bool
	byeOK      bool // the collector confirmed our Bye

	buf []byte // encode scratch, reused across frames
}

// DialAgent connects to a collector at addr, performs the handshake
// for the given agent ID, and returns the ready agent. cfg must be the
// pipeline configuration the collector was started with (its detection
// digest is what the handshake carries; a mismatch surfaces as a
// *ConfigMismatchError). The initial connect uses the same retry policy
// as redials, so an agent may come up before its collector.
func DialAgent(addr string, agentID int, cfg core.Config, opts AgentOptions) (*Agent, error) {
	if agentID < 0 {
		return nil, fmt.Errorf("wire: negative agent ID %d", agentID)
	}
	opts = opts.withDefaults()
	if opts.Dialer == nil {
		opts.Dialer = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	a := newAgent(agentID, cfg, opts)
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.reconnectLocked(max(1, a.redialAttempts())); err != nil {
		return nil, err
	}
	return a, nil
}

// NewAgent wraps an established connection, performing the handshake
// on it. An agent built this way has no dialer: it still
// buffers frames until acked, but a lost connection is a permanent
// error (set AgentOptions.Dialer via DialAgent for redials).
func NewAgent(conn net.Conn, agentID int, cfg core.Config) (*Agent, error) {
	if agentID < 0 {
		return nil, fmt.Errorf("wire: negative agent ID %d", agentID)
	}
	a := newAgent(agentID, cfg, AgentOptions{}.withDefaults())
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.handshakeLocked(conn); err != nil {
		return nil, err
	}
	return a, nil
}

// newAgent builds the shared state; the caller connects.
func newAgent(agentID int, cfg core.Config, opts AgentOptions) *Agent {
	a := &Agent{
		id:     agentID,
		digest: ConfigDigest(cfg),
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Retry.Seed)),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// redialAttempts resolves the configured redial budget: negative
// MaxAttempts disables reconnection.
func (a *Agent) redialAttempts() int {
	if a.opts.Retry.MaxAttempts < 0 {
		return 0
	}
	return a.opts.Retry.MaxAttempts
}

// handshakeLocked performs the handshake on conn — Hello carrying
// the resume offset (the highest acked boundary), then the collector's
// HelloOK or Error reply — trims the replay buffer to the collector's
// resume line, resends the remaining unacked frames in boundary order,
// and installs conn as the live connection with a fresh read loop.
// a.mu must be held. On error the caller owns closing conn.
func (a *Agent) handshakeLocked(conn net.Conn) error {
	w := bufio.NewWriter(conn)
	if err := writeFrame(w, frameHello, appendHello(nil, protoVersion, a.id, a.acked, a.digest)); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wire: sending hello: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("wire: reading hello reply: %w", err)
	}
	switch typ {
	case frameHelloOK:
	case frameError:
		return decodeError(payload)
	default:
		return fmt.Errorf("wire: expected hello reply, got frame type %d", typ)
	}
	resume, err := decodeBoundary(payload)
	if err != nil {
		return err
	}
	a.ackLocked(resume) // frames at or below the collector's line are settled
	for i := range a.replay {
		if err := writeFrame(w, a.replay[i].typ, a.replay[i].payload); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wire: replaying unacked frames: %w", err)
	}
	a.conn, a.w = conn, w
	a.gen++
	go a.readLoop(conn, a.gen)
	return nil
}

// reconnectLocked redials up to attempts times with jittered backoff,
// handshaking each new connection; it settles permErr when the budget
// is exhausted or the collector rejects the stream. a.mu must be held.
func (a *Agent) reconnectLocked(attempts int) error {
	if a.opts.Dialer == nil {
		a.permErr = fmt.Errorf("wire: agent %d: connection lost and no dialer configured", a.id)
		a.cond.Broadcast()
		return a.permErr
	}
	var lastErr error = fmt.Errorf("wire: agent %d: reconnection disabled", a.id)
	for attempt := 0; attempt < attempts; attempt++ {
		if a.closed {
			return fmt.Errorf("wire: agent %d closed", a.id)
		}
		delay := a.opts.Retry.backoff(attempt, a.rng)
		a.mu.Unlock()
		if delay > 0 {
			a.opts.Retry.Sleep(delay)
		}
		conn, err := a.opts.Dialer()
		a.mu.Lock()
		if a.closed {
			if err == nil {
				conn.Close()
			}
			return fmt.Errorf("wire: agent %d closed", a.id)
		}
		if err != nil {
			lastErr = err
			continue
		}
		if err := a.handshakeLocked(conn); err != nil {
			conn.Close()
			var mismatch *ConfigMismatchError
			if errors.As(err, &mismatch) || errors.Is(err, errSessionEnded) {
				a.permErr = err
				a.cond.Broadcast()
				return err
			}
			lastErr = err
			continue
		}
		a.reconnects++
		return nil
	}
	a.permErr = fmt.Errorf("wire: agent %d: collector unreachable after %d attempts: %w",
		a.id, attempts, lastErr)
	a.cond.Broadcast()
	return a.permErr
}

// ackLocked advances the cumulative ack line to boundary and drops the
// settled prefix of the replay buffer. a.mu must be held.
func (a *Agent) ackLocked(boundary int64) {
	if boundary <= a.acked {
		return
	}
	a.acked = boundary
	n := 0
	for n < len(a.replay) && a.replay[n].boundary <= boundary {
		n++
	}
	if n > 0 {
		a.replay = append(a.replay[:0], a.replay[n:]...)
	}
	a.cond.Broadcast()
}

// readLoop consumes the collector→agent side of one connection: Ack
// frames advance the ack line, an Error frame kills the stream, and a
// read failure marks the connection lost (the next ship redials).
func (a *Agent) readLoop(conn net.Conn, gen int) {
	br := bufio.NewReader(conn)
	for {
		typ, payload, err := readFrame(br)
		a.mu.Lock()
		if gen != a.gen || a.closed {
			a.mu.Unlock()
			return // a newer connection took over, or Close ran
		}
		if err != nil {
			a.conn, a.w = nil, nil
			a.cond.Broadcast()
			a.mu.Unlock()
			conn.Close()
			return
		}
		switch typ {
		case frameAck:
			if b, derr := decodeBoundary(payload); derr == nil {
				a.ackLocked(b)
			}
		case frameByeOK:
			a.byeOK = true
			a.cond.Broadcast()
		case frameError:
			a.permErr = decodeError(payload)
			a.conn, a.w = nil, nil
			a.cond.Broadcast()
			a.mu.Unlock()
			conn.Close()
			return
		default:
			// Unknown collector frames are skipped for forward
			// compatibility; the length prefix delimits them.
		}
		a.mu.Unlock()
	}
}

// ShipOpenInterval sends one drained interval (see
// core.Pipeline.DrainOpenInterval) tagged with its absolute grid
// boundary (Unix ms). The frame enters the replay buffer first and
// leaves it only when the collector acks the boundary, so a connection
// lost at any point is survivable: ShipOpenInterval redials and
// replays per the retry policy, blocking (backpressure) rather than
// dropping when the buffer is full. Boundaries must be strictly
// increasing per agent. A permanent failure — retry budget exhausted,
// config mismatch, no dialer — is returned and sticks.
func (a *Agent) ShipOpenInterval(boundary int64, oi core.OpenInterval) error {
	_, err := a.ship(boundary, frameOpenInterval, func(b []byte) []byte {
		return appendOpenInterval(b, oi)
	}, false)
	return err
}

// ship is the shared delivery path — encode under the lock, enter the
// replay buffer, write or redial — with one extra mode for relays: when
// skipStale is set, a boundary at or below the collector's ack line (or
// the replay-buffer tail) returns (false, nil) instead of an error — a
// resumed relay legitimately re-closes boundaries its parent already
// holds, and must settle its children for them without resending.
func (a *Agent) ship(boundary int64, typ byte, encodeBody func([]byte) []byte, skipStale bool) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false, fmt.Errorf("wire: agent %d closed", a.id)
	}
	if a.permErr != nil {
		return false, a.permErr
	}
	if boundary <= a.acked {
		if skipStale {
			return false, nil
		}
		return false, fmt.Errorf("wire: agent %d boundary %d not after acked %d", a.id, boundary, a.acked)
	}
	if n := len(a.replay); n > 0 && boundary <= a.replay[n-1].boundary {
		if skipStale {
			return false, nil
		}
		return false, fmt.Errorf("wire: agent %d boundary %d not after %d", a.id, boundary, a.replay[n-1].boundary)
	}

	// Wait for replay space; acks free it, a dead connection has to be
	// redialed first for them to arrive.
	for len(a.replay) >= a.opts.ReplayBuffer {
		if a.permErr != nil {
			return false, a.permErr
		}
		if a.closed {
			return false, fmt.Errorf("wire: agent %d closed", a.id)
		}
		if a.conn == nil {
			if err := a.reconnectLocked(a.redialAttempts()); err != nil {
				return false, err
			}
			continue
		}
		a.cond.Wait()
	}
	if skipStale && boundary <= a.acked {
		// The ack line moved past this boundary while waiting for replay
		// space (a reconnect handshake can advance it): already settled.
		return false, nil
	}

	a.buf = appendVarint(a.buf[:0], boundary)
	a.buf = append(a.buf, codecVersion)
	a.buf = encodeBody(a.buf)
	entry := replayEntry{typ: typ, boundary: boundary, payload: append([]byte(nil), a.buf...)}
	a.replay = append(a.replay, entry)

	if a.conn == nil {
		// The reconnect handshake replays the whole buffer, the new
		// entry included.
		return true, a.reconnectLocked(a.redialAttempts())
	}
	if err := writeFrame(a.w, entry.typ, entry.payload); err == nil {
		if err = a.w.Flush(); err == nil {
			return true, nil
		}
	}
	// The write broke the connection; the entry is safe in the replay
	// buffer, so redialing both repairs the stream and resends it.
	a.dropConnLocked()
	return true, a.reconnectLocked(a.redialAttempts())
}

// shipRelayInterval ships a relay's merged interval upstream as a
// frameRelayInterval, with ShipOpenInterval's delivery semantics plus
// stale-skip: the reported bool is false when the boundary was already
// settled upstream (acked or still buffered from before a resume) and
// nothing was sent. spanLo/spanLen describe the relay's global leaf span and
// missing lists the in-span leaf IDs this boundary closed without.
func (a *Agent) shipRelayInterval(boundary int64, spanLo, spanLen int, missing []int, oi core.OpenInterval) (bool, error) {
	return a.ship(boundary, frameRelayInterval, func(b []byte) []byte {
		b = appendRelayHeader(b, spanLo, spanLen, missing)
		return appendOpenInterval(b, oi)
	}, true)
}

// connect performs the initial dial-and-handshake for an agent built
// with newAgent and an explicit dialer (the relay's upstream face);
// DialAgent does the equivalent itself.
func (a *Agent) connect() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reconnectLocked(max(1, a.redialAttempts()))
}

// waitAckedAbove blocks until the collector's cumulative ack line
// exceeds prev, returning the new line. ok=false means no further
// progress will come: the agent was closed or its stream failed
// permanently with the line still at or below prev.
func (a *Agent) waitAckedAbove(prev int64) (line int64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.acked <= prev && !a.closed && a.permErr == nil {
		a.cond.Wait()
	}
	return a.acked, a.acked > prev
}

// unackedFrames returns how many shipped frames await an upstream ack.
func (a *Agent) unackedFrames() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.replay)
}

// replayState copies the unacked replay entries, boundary ascending —
// what a relay checkpoint must persist so a restart can re-offer them.
// Payload slices are shared; entries are immutable once buffered.
func (a *Agent) replayState() []replayEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]replayEntry(nil), a.replay...)
}

// preloadReplay seeds the replay buffer from a relay checkpoint before
// the first dial. The handshake's HelloOK line then trims whatever the
// collector already holds and resends the rest.
func (a *Agent) preloadReplay(entries []replayEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.replay = append(a.replay[:0], entries...)
}

// abort ends the agent without the Bye handshake: the stream is not
// cleanly finished — a relay session failed mid-flight — and the
// collector must keep treating this agent as resumable (statusDown, not
// statusBye). Unacked frames are deliberately left undelivered; a
// checkpointed restart re-offers them.
func (a *Agent) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	a.gen++
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.w = nil, nil
	}
	a.cond.Broadcast()
}

// dropConnLocked closes and forgets the current connection. a.mu must
// be held.
func (a *Agent) dropConnLocked() {
	if a.conn != nil {
		a.conn.Close()
		a.conn, a.w = nil, nil
		a.gen++ // retire the read loop
	}
}

// Acked returns the highest boundary the collector has acknowledged —
// every frame at or below it is absorbed (and durable when the
// collector checkpoints).
func (a *Agent) Acked() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acked
}

// Close ends the stream: it sends the Bye frame, waits for the
// collector's ByeOK confirmation, and closes the connection. The final
// partial interval must already have been shipped (the engine's Close
// flushes it through the sink before the sink's Close runs). Delivery
// is at-least-once end to end: a connection that dies before the
// confirmation — unacked frames included — is redialed per the retry
// policy and the Bye resent, so a collector holding the session open
// for this agent always learns it ended.
func (a *Agent) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	var err error
	if a.permErr == nil {
		err = a.sendByeLocked()
	}
	a.closed = true
	a.gen++
	if a.conn != nil {
		if cerr := a.conn.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wire: closing agent connection: %w", cerr)
		}
		a.conn, a.w = nil, nil
	}
	a.cond.Broadcast()
	return err
}

// sendByeLocked delivers the end-of-stream marker reliably: write Bye,
// wait until the collector confirms it with ByeOK, and if the
// connection dies first, redial (replaying any unacked frames) and
// resend. Without the confirmation a Bye swallowed by a dying
// connection would leave the collector waiting forever for an agent
// that already exited. a.mu must be held.
func (a *Agent) sendByeLocked() error {
	for {
		if a.conn == nil {
			if a.opts.Dialer == nil && len(a.replay) == 0 {
				// Nothing undelivered and no way to redial: end without
				// the marker.
				return nil
			}
			if err := a.reconnectLocked(a.redialAttempts()); err != nil {
				if errors.Is(err, errSessionEnded) {
					return nil // the Bye landed; only its confirmation was lost
				}
				return err
			}
		}
		if err := writeFrame(a.w, frameBye, nil); err == nil {
			if err = a.w.Flush(); err == nil {
				for !a.byeOK && a.conn != nil && a.permErr == nil {
					a.cond.Wait()
				}
				if a.permErr != nil {
					return a.permErr
				}
				if a.byeOK {
					return nil
				}
				continue // connection died before ByeOK; resend
			}
		}
		a.dropConnLocked()
	}
}

// AgentSink adapts an agent and a local sharded pipeline into an
// engine.Sink: ObserveBatch accumulates into the pipeline, and each
// interval close drains the open interval (merging local shards) and
// ships it to the collector instead of running detection. The engine
// invokes the BoundarySink form, so every shipped snapshot carries the
// interval's absolute grid boundary. The stub reports it emits locally
// carry only the interval ordinal and flow count — detection happens at
// the collector.
type AgentSink struct {
	agent    *Agent
	sp       *shard.ShardedPipeline
	interval int
}

// NewAgentSink builds the sink. The sink takes ownership of sp (Close
// closes it) but not of agent — callers close the agent after the
// engine, so the Bye frame follows the final flushed snapshot.
func NewAgentSink(agent *Agent, sp *shard.ShardedPipeline) *AgentSink {
	return &AgentSink{agent: agent, sp: sp}
}

// ObserveBatch feeds a batch into the local pipeline.
func (s *AgentSink) ObserveBatch(recs []flow.Record) { s.sp.ObserveBatch(recs) }

// EndIntervalAt drains the open interval — the lean drain, which never
// copies the detection history an agent keeps empty — and ships it
// tagged with the grid boundary. A boundary of 0 (stream held no
// records at all) ships nothing — there is no grid slot to merge it
// into, and the drained interval is empty by construction.
func (s *AgentSink) EndIntervalAt(boundary int64) (*core.Report, error) {
	oi, err := s.sp.DrainOpenInterval()
	if err != nil {
		return nil, err
	}
	rep := &core.Report{Interval: s.interval, TotalFlows: oi.Buffer.Len()}
	s.interval++
	if boundary == 0 {
		return rep, nil
	}
	if err := s.agent.ShipOpenInterval(boundary, oi); err != nil {
		return nil, err
	}
	return rep, nil
}

// EndInterval exists to satisfy engine.Sink; the engine always uses
// EndIntervalAt (the sink implements BoundarySink) and a shipped
// snapshot is meaningless without its boundary.
func (s *AgentSink) EndInterval() (*core.Report, error) {
	return nil, fmt.Errorf("wire: agent sink requires a boundary; drive it through the engine")
}

// Close releases the local pipeline's worker pools. The agent
// connection stays open — close it after the engine, so Bye trails the
// final snapshot.
func (s *AgentSink) Close() { s.sp.Close() }
