// Package anomalyx is a Go implementation of the anomaly-extraction
// system of Brauckhoff, Dimitropoulos, Wagner and Salamatian, "Anomaly
// Extraction in Backbone Networks Using Association Rules" (ACM IMC 2009;
// extended in IEEE/ACM ToN 20(6), 2012).
//
// The pipeline monitors NetFlow traffic with histogram-based detectors
// (randomized histogram clones, Kullback–Leibler distance against the
// previous interval, a robust MAD threshold), consolidates alarm
// meta-data by l-of-n voting and cross-detector union, prefilters the
// suspicious flows, and summarizes them into maximal frequent item-sets
// with a modified Apriori — the item-sets an operator inspects instead of
// hundreds of thousands of raw flows.
//
// This package is the public facade: it re-exports the pipeline types so
// that applications need a single import.
//
// Every configuration of the system — workers, shards, or distributed
// agents and a collector — produces byte-identical reports for the same
// input records; see docs/ARCHITECTURE.md "The determinism contract"
// for how parallel state merges and sorted report boundaries keep that
// guarantee.
//
//	p, _ := anomalyx.NewPipeline(anomalyx.Config{})
//	for _, rec := range intervalFlows {
//		p.Observe(rec)
//	}
//	rep, _ := p.EndInterval()
//	if rep.Alarm {
//		for _, set := range rep.ItemSets {
//			fmt.Println(set.String())
//		}
//	}
package anomalyx

import (
	"runtime"

	"anomalyx/internal/core"
	"anomalyx/internal/detector"
	"anomalyx/internal/engine"
	"anomalyx/internal/flow"
	"anomalyx/internal/itemset"
	"anomalyx/internal/mining"
	"anomalyx/internal/mining/apriori"
	"anomalyx/internal/mining/eclat"
	"anomalyx/internal/mining/fpgrowth"
	"anomalyx/internal/netflow"
	"anomalyx/internal/prefilter"
	"anomalyx/internal/shard"
	"anomalyx/internal/wire"
)

// Core model types.
type (
	// Flow is one unidirectional flow record (the NetFlow v5
	// abstraction: 5-tuple plus packet and byte counts).
	Flow = flow.Record
	// FeatureKind identifies one of the seven transaction features.
	FeatureKind = flow.FeatureKind
	// Item is one (feature, value) pair; ItemSet a frequent item-set.
	Item = itemset.Item
	// ItemSet is a frequent item-set with its support count.
	ItemSet = itemset.Set
	// Transaction is a flow viewed as a seven-item transaction.
	Transaction = itemset.Transaction
	// MetaData is the per-feature alarm annotation driving prefiltering.
	MetaData = detector.MetaData
)

// Pipeline types.
type (
	// Config parameterizes the extraction pipeline (Table III).
	Config = core.Config
	// DetectorConfig parameterizes one histogram-based detector.
	DetectorConfig = detector.Config
	// Pipeline is the online anomaly-extraction engine.
	Pipeline = core.Pipeline
	// Report is the per-interval outcome.
	Report = core.Report
	// MiningResult is a frequent item-set mining outcome.
	MiningResult = mining.Result
	// Miner is a frequent item-set mining algorithm.
	Miner = mining.Miner
)

// MetricKind selects the detector's distribution-change measure.
type MetricKind = detector.MetricKind

// Detector metrics: the paper's KL distance and the entropy distance of
// Table I's entropy-based detectors.
const (
	MetricKL      = detector.MetricKL
	MetricEntropy = detector.MetricEntropy
)

// The seven transaction features.
const (
	SrcIP   = flow.SrcIP
	DstIP   = flow.DstIP
	SrcPort = flow.SrcPort
	DstPort = flow.DstPort
	Proto   = flow.Proto
	Packets = flow.Packets
	Bytes   = flow.Bytes
)

// Streaming engine types.
type (
	// Engine is the channel-based streaming front end: submit flows
	// (Submit or the batched SubmitBatch, which returns how many
	// intervals the batch closed), receive one Report per measurement
	// interval, with interval sharding by flow start time and
	// bounded-buffer backpressure.
	Engine = engine.Engine
	// EngineConfig parameterizes a streaming engine; set Shards > 1 for
	// hash-partitioned multi-pipeline sharding behind the engine.
	EngineConfig = engine.Config
)

// Sharding types.
type (
	// ShardedPipeline hash-partitions flows across N independent
	// pipelines by the stable flow key and closes intervals in lockstep
	// with a deterministic cross-shard merge: reports are byte-identical
	// to an unsharded pipeline over the same records.
	ShardedPipeline = shard.ShardedPipeline
	// ShardConfig parameterizes a sharded pipeline.
	ShardConfig = shard.Config
)

// NewPipeline builds an extraction pipeline; zero-value Config fields take
// the paper's defaults (five features, k=1024, n=l=3, alpha=3, modified
// Apriori, union prefilter, minimum support 5% of the suspicious flows).
// Set Config.Workers to run the detector bank's batched ingestion and the
// extraction stage's prefilter scan on a worker pool (0 = GOMAXPROCS);
// parallel reports are byte-identical to sequential ones.
func NewPipeline(cfg Config) (*Pipeline, error) { return core.New(cfg) }

// NewEngine builds and starts a streaming engine around a pipeline
// (or, with cfg.Shards > 1, around a sharded pipeline).
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// NewShardedEngine builds and starts a streaming engine around a
// hash-partitioned ShardedPipeline of the given shard count (0 =
// GOMAXPROCS; negative counts are rejected, as everywhere in the
// sharding API). It is NewEngine with cfg.Shards set.
func NewShardedEngine(cfg EngineConfig, shards int) (*Engine, error) {
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg.Shards = shards
	return engine.New(cfg)
}

// NewShardedPipeline builds a sharded pipeline: cfg.Shards independent
// pipelines (default GOMAXPROCS) partitioned by flow key, merged
// deterministically at every EndInterval. Call Close when done to
// release the shards' worker pools.
func NewShardedPipeline(cfg ShardConfig) (*ShardedPipeline, error) { return shard.New(cfg) }

// ExtractOffline runs the extraction stage alone on a recorded interval:
// prefilter recs with meta and mine the suspicious set (the post-mortem
// alarm-investigation mode). cfg.Workers parallelizes the prefilter scan
// with output identical to the sequential one.
func ExtractOffline(cfg Config, recs []Flow, meta MetaData) (*Report, error) {
	return core.ExtractOffline(cfg, recs, meta)
}

// NewMetaData returns an empty alarm annotation for offline extraction.
func NewMetaData() MetaData { return detector.NewMetaData() }

// Apriori returns the paper's modified level-wise miner (§II-B).
func Apriori() Miner { return apriori.New() }

// FPGrowth returns the FP-tree miner; same item-sets as Apriori.
func FPGrowth() Miner { return fpgrowth.New() }

// Eclat returns the vertical tid-list miner; same item-sets as Apriori.
func Eclat() Miner { return eclat.New() }

// EclatParallel returns an Eclat miner that fans the depth-first
// tid-list search out over first-item equivalence classes on a pool of
// workers goroutines (0 = GOMAXPROCS, 1 = sequential). The mining
// result is byte-identical to the sequential Eclat on every input.
func EclatParallel(workers int) Miner { return eclat.New().Parallel(workers) }

// PrefilterUnion returns the paper's union prefilter strategy.
func PrefilterUnion() prefilter.Strategy { return prefilter.Union{} }

// PrefilterIntersection returns the intersection baseline (§II-A shows it
// can miss multistage anomalies entirely).
func PrefilterIntersection() prefilter.Strategy { return prefilter.Intersection{} }

// Distributed deployment: the wire protocol that lets shards live on
// separate machines. Agents accumulate partitions of the flow stream
// and ship each measurement interval's drained state (mergeable
// histogram clones + buffered flows) to a collector, which absorbs the
// snapshots in agent-ID order and runs detection — with reports
// byte-identical to a single process running the same partitions as
// in-process shards. Sessions survive their transports: agents buffer
// unacked intervals, redial, and resume; the collector deduplicates
// replays and can restart from a checkpoint. See docs/ARCHITECTURE.md
// for the full contract and failure model.
type (
	// WireAgent is the sending half: one logical stream to a collector
	// that survives connection loss via ack-gated replay.
	WireAgent = wire.Agent
	// WireCollector merges N agents' interval frames and owns all
	// detection state.
	WireCollector = wire.Collector
	// PipelineSnapshot is a pipeline's exported state — a lossless,
	// canonically-encoded checkpoint.
	PipelineSnapshot = core.PipelineSnapshot
	// RetryConfig parameterizes an agent's redial backoff (capped
	// exponential with seeded jitter).
	RetryConfig = wire.RetryConfig
	// CollectorConfig parameterizes a collector session: fleet size,
	// partial-interval policy, checkpoint/resume, metrics address.
	CollectorConfig = wire.CollectorConfig
	// PartialPolicy selects what the collector does with an interval
	// pending while an agent is disconnected (HoldWithTimeout or
	// CloseWithout).
	PartialPolicy = wire.PartialPolicy
	// ConfigMismatchError reports a handshake rejected over differing
	// detection-config digests; match it with errors.As.
	ConfigMismatchError = wire.ConfigMismatchError
	// WireRelay is an intermediate federation node: a collector facing
	// child agents below and an agent facing a parent collector above.
	// It merges its children's interval frames and ships the merged
	// open interval upward without ever running detection — only the
	// tree's root owns detection history and emits reports.
	WireRelay = wire.Relay
	// RelayConfig parameterizes a relay node: fan-in, position in the
	// tree, upstream address, and checkpoint/resume options.
	RelayConfig = wire.RelayConfig
)

// The partial-interval policies; see PartialPolicy.
const (
	// HoldWithTimeout holds a pending interval for a disconnected agent
	// up to CollectorConfig.HoldTimeout (0 = forever) before closing
	// without it.
	HoldWithTimeout = wire.HoldWithTimeout
	// CloseWithout closes pending intervals immediately without
	// disconnected agents, flagging Report.Partial.
	CloseWithout = wire.CloseWithout
)

// AgentConfig parameterizes the agent side of a distributed session.
type AgentConfig struct {
	// Addr is the collector's TCP address.
	Addr string
	// AgentID is this agent's ID in [0, CollectorConfig.Agents).
	AgentID int
	// Retry is the redial policy; the zero value means 8 attempts with
	// 100ms-base jittered exponential backoff capped at 10s.
	Retry RetryConfig
	// Shards is the local shard count behind the engine (0 =
	// GOMAXPROCS), as in NewShardedEngine.
	Shards int
	// ReplayBuffer bounds the unacked-frame replay buffer (0 = 64);
	// when full, interval closes block until the collector acks —
	// backpressure, never data loss.
	ReplayBuffer int
}

// AgentSession is a running distributed agent: a streaming Engine whose
// interval closes ship drained snapshots to the collector, plus the
// wire stream itself. Submit flows and read Reports exactly as with a
// local Engine (the reports are local stubs; detection happens at the
// collector). Close shuts both down in the required order.
type AgentSession struct {
	*Engine
	agent *WireAgent
}

// Agent exposes the underlying wire stream (for Acked-boundary
// inspection; closing it is Close's job).
func (s *AgentSession) Agent() *WireAgent { return s.agent }

// Close flushes and stops the engine (shipping the final partial
// interval), then closes the wire stream so the Bye frame trails the
// final snapshot. It returns the first error.
func (s *AgentSession) Close() error {
	err := s.Engine.Close()
	if cerr := s.agent.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewAgent dials the collector and starts a distributed agent session:
// a streaming engine draining a locally sharded pipeline into the wire
// stream each interval. cfg.Pipeline must match the collector's
// configuration (digest-checked in the handshake; a mismatch surfaces
// as a *ConfigMismatchError). The session survives collector outages
// per ac.Retry: unacked intervals are buffered and replayed after a
// redial.
func NewAgent(cfg EngineConfig, ac AgentConfig) (*AgentSession, error) {
	agent, err := wire.DialAgent(ac.Addr, ac.AgentID, cfg.Pipeline, wire.AgentOptions{
		Retry:        ac.Retry,
		ReplayBuffer: ac.ReplayBuffer,
	})
	if err != nil {
		return nil, err
	}
	shards := ac.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	sp, err := shard.New(shard.Config{Shards: shards, Pipeline: cfg.Pipeline})
	if err != nil {
		agent.Close()
		return nil, err
	}
	eng, err := engine.NewWithSink(cfg, wire.NewAgentSink(agent, sp))
	if err != nil {
		// The engine was never built, so nothing else will release the
		// shards' worker pools.
		sp.Close()
		agent.Close()
		return nil, err
	}
	return &AgentSession{Engine: eng, agent: agent}, nil
}

// NewCollectorWithConfig builds the collector side from a
// CollectorConfig; drive it with Serve on a TCP listener.
func NewCollectorWithConfig(cfg Config, cc CollectorConfig) (*WireCollector, error) {
	return wire.NewCollector(cfg, cc)
}

// NewRelay builds a federation relay node; drive it with Serve on a
// TCP listener facing its children. cfg must match the whole tree's
// detection configuration (digest-checked on every edge). A relay
// never acks a child's boundary before the boundary is either acked by
// its own parent or durably checkpointed, so no tier of the tree can
// lose or duplicate an interval.
func NewRelay(cfg Config, rc RelayConfig) (*WireRelay, error) {
	return wire.NewRelay(cfg, rc)
}

// EncodePipelineSnapshot serializes a pipeline snapshot with the
// canonical versioned codec; DecodePipelineSnapshot is its inverse.
func EncodePipelineSnapshot(s PipelineSnapshot) []byte { return wire.EncodePipelineSnapshot(s) }

// DecodePipelineSnapshot parses an EncodePipelineSnapshot payload.
func DecodePipelineSnapshot(b []byte) (PipelineSnapshot, error) {
	return wire.DecodePipelineSnapshot(b)
}

// EncodeOpenIntervalSnapshot serializes a drained open interval in the
// lean form agents ship every interval boundary — clone histograms and
// flow buffer only. It errors on snapshots carrying detection history;
// use EncodePipelineSnapshot for full checkpoints.
func EncodeOpenIntervalSnapshot(s PipelineSnapshot) ([]byte, error) {
	return wire.EncodeOpenIntervalSnapshot(s)
}

// DecodeOpenIntervalSnapshot parses an EncodeOpenIntervalSnapshot
// payload into a full snapshot with canonical empty history.
func DecodeOpenIntervalSnapshot(b []byte) (PipelineSnapshot, error) {
	return wire.DecodeOpenIntervalSnapshot(b)
}

// ConfigDigest hashes the detection-relevant configuration — what both
// ends of a wire connection must agree on for snapshots to merge
// meaningfully.
func ConfigDigest(cfg Config) uint64 { return wire.ConfigDigest(cfg) }

// NetFlow I/O.
type (
	// FlowReader streams flow records from concatenated NetFlow v5
	// export packets.
	FlowReader = netflow.Reader
	// FlowWriter batches flow records into NetFlow v5 export packets.
	FlowWriter = netflow.Writer
	// V9Decoder parses NetFlow v9 export datagrams (template-based,
	// RFC 3954) into flow records.
	V9Decoder = netflow.V9Decoder
	// V9Encoder serializes flow records as v9 export datagrams.
	V9Encoder = netflow.V9Encoder
)

// NewV9Decoder returns a v9 decoder with an empty template cache.
var NewV9Decoder = netflow.NewV9Decoder

// NewV9Encoder returns a v9 encoder for an exporter booted at bootMs.
var NewV9Encoder = netflow.NewV9Encoder

// NewFlowReader wraps an io.Reader of concatenated v5 packets.
var NewFlowReader = netflow.NewReader

// NewFlowWriter wraps an io.Writer; bootMs is the simulated exporter boot
// time in Unix milliseconds.
var NewFlowWriter = netflow.NewWriter
