// Package mmptcp is a packet-level simulation study of MMPTCP — "Short
// vs. Long Flows: A Battle That Both Can Win" (Kheirkhah, Wakeman,
// Parisis; SIGCOMM 2015) — implemented entirely in Go on a custom
// discrete-event simulator.
//
// MMPTCP is a hybrid data-centre transport: it opens in a Packet Scatter
// phase (per-packet source-port randomisation under a single TCP window,
// spraying packets across all ECMP paths — good for latency-sensitive
// short flows), then switches to standard MPTCP with LIA coupled
// congestion control (good for bandwidth-hungry long flows).
//
// This package is the public API: describe an experiment with Config —
// topology (the paper's 512-server 4:1 over-subscribed FatTree or
// smaller variants), protocol (TCP, MPTCP with N subflows, MMPTCP with
// either switching strategy) and workload (permutation traffic matrix,
// one third of servers running long background flows, the rest sending
// 70 KB short flows with Poisson arrivals) — and Run it to obtain
// per-flow completion times, per-layer loss rates, long-flow throughput
// and link utilisation.
//
// The internal packages implement the substrates: internal/sim (event
// engine), internal/netem (links, queues, ECMP switches), internal/
// topology (FatTree and friends), internal/tcp (NewReno), internal/mptcp
// (LIA), internal/core (MMPTCP itself), internal/workload and
// internal/metrics.
package mmptcp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Protocol selects the transport under test.
type Protocol string

// Supported protocols.
const (
	ProtoTCP    Protocol = "tcp"    // single-path NewReno over per-flow ECMP
	ProtoMPTCP  Protocol = "mptcp"  // MPTCP with Subflows subflows and LIA
	ProtoMMPTCP Protocol = "mmptcp" // the paper's hybrid (PS then MPTCP)
	// ProtoDCTCP is the single-path DCTCP baseline (the §1 class of
	// latency-oriented transports that need switch ECN support).
	// Selecting it enables ECN marking on every link (ECNThreshold).
	ProtoDCTCP Protocol = "dctcp"
)

// TopologyKind selects the simulated network.
type TopologyKind string

// Supported topologies.
const (
	TopoFatTree    TopologyKind = "fattree"    // k-ary FatTree (paper: K=8, 16 hosts/edge)
	TopoMultiHomed TopologyKind = "multihomed" // dual-homed FatTree (paper roadmap)
	TopoDumbbell   TopologyKind = "dumbbell"   // two switches, one bottleneck
	TopoVL2        TopologyKind = "vl2"        // VL2-style Clos with a 10x fabric
)

// RoutingConfig is the routing section of Config: which repair model
// runs under failures and how recomputed tables reach the switches.
// The zero value is the PR-2 baseline — local repair, atomic flips.
type RoutingConfig struct {
	// Mode selects the repair model. RoutingLocal (the default) is
	// link-local reconvergence: each switch stops using its own dead
	// links but upstream ECMP stays oblivious, so traffic keeps hashing
	// onto next hops with no way forward (NoRouteDrops). RoutingGlobal
	// installs the control plane that recomputes global reachability
	// after each reconvergence-delayed link state change and steers ECMP
	// around unreachable next hops.
	Mode RoutingMode

	// Convergence picks how the control plane's recomputed tables reach
	// the switches: ConvergeAtomic (default) flips every switch at
	// recompute time; ConvergeStaggered gives each switch its own FIB
	// flip time — recompute time plus PerHopDelay per hop from the
	// nearest failed element — opening the micro-loop and transient-
	// blackhole window real control planes exhibit (accounted in
	// Results.Routing and Results.LoopDrops). Staggered convergence
	// requires Mode RoutingGlobal.
	Convergence ConvergenceMode
	// PerHopDelay is the staggered flip delay per hop of distance from
	// the transition; zero makes staggered degenerate to atomic exactly.
	// Must not be negative.
	PerHopDelay SimTime

	// HoldDown enables flap damping in the control plane: a link whose
	// routing state transitions more than FlapThreshold times within
	// this trailing window stops triggering immediate recomputes; its
	// pending flips fold into one deferred rebuild at window expiry.
	// Zero disables damping.
	HoldDown SimTime
	// FlapThreshold is the number of transitions inside one hold-down
	// window a link may make before it is damped; defaults to 3 when
	// HoldDown is set.
	FlapThreshold int
}

// TransportConfig is the transport-recovery section of Config: whether
// and how the transports react to persistent path failures instead of
// backing off on RTOs until repair. The zero value is off — recovery
// disabled — and off really is off: no extra RNG draws, no extra engine
// events, results byte-identical to builds without the subsystem (the
// recovery-off byte-identity suite pins this).
//
// With DeadRTOs > 0, an MPTCP/MMPTCP subflow that fires that many
// consecutive RTOs without an intervening new ACK is declared dead: its
// sender is closed, its unacknowledged data-level allocation migrates
// back to the connection for re-pull, and a replacement subflow is
// dialed on a fresh randomised source port — re-hashing the 5-tuple
// onto a hopefully-live ECMP path — re-entering LIA coupling. Repeat
// deaths of the same subflow slot back off capped-exponentially
// (RedialBackoff base), and each connection spends at most RedialBudget
// re-dial attempts. Plain TCP and DCTCP have one path and never
// re-dial; the knobs are accepted under any protocol so one experiment
// config can compare transports.
//
// Determinism: replacement source ports are drawn from the
// connection's own per-flow RNG stream, consumed in event order, so
// recovery-on runs are deterministic per (Seed, Shards) and recovery
// stays out of every other flow's draw sequence.
type TransportConfig struct {
	// DeadRTOs is the consecutive-RTO threshold declaring a subflow's
	// path dead. Zero disables recovery; negative is rejected.
	DeadRTOs int
	// RedialBackoff is the base delay between repeated re-dials of the
	// same subflow slot: the first replacement dials immediately, the
	// k-th waits min(RedialBackoff << (k-2), 16*RedialBackoff).
	// Defaults to 10ms when DeadRTOs is set; setting it with recovery
	// off is rejected.
	RedialBackoff SimTime
	// RedialBudget caps re-dial attempts per connection; defaults to 4
	// when DeadRTOs is set. A connection out of budget leaves its
	// stalled subflows backing off as if recovery were off. Setting it
	// with recovery off is rejected.
	RedialBudget int
	// DeferPhaseSwitch holds MMPTCP's packet-scatter→subflow switch
	// open while the routing control plane reports an unconverged state
	// (pending recompute, hold-down, or staged FIB flips), so fresh
	// subflows are not pinned onto mid-flip tables. Requires
	// Routing.Mode global — local repair exposes no convergence signal.
	DeferPhaseSwitch bool
	// MaxDefer bounds the deferral: the switch is forced this long
	// after the first postponement even under sustained churn. Defaults
	// to 50ms when DeferPhaseSwitch is set; setting it without
	// DeferPhaseSwitch is rejected.
	MaxDefer SimTime
}

// Active reports whether any recovery mechanism is armed.
func (t TransportConfig) Active() bool {
	return t.DeadRTOs > 0 || t.DeferPhaseSwitch
}

// MetricsMode selects how Run accumulates per-flow measurements.
type MetricsMode string

// Metrics accumulation modes.
const (
	// MetricsExact (the default) retains one FlowRecord per flow —
	// Results.ShortFlows in spawn order, summarised by sorting the full
	// FCT slice. Memory is O(flows); percentiles are exact. This mode is
	// the oracle the streaming mode is tested against.
	MetricsExact MetricsMode = "exact"
	// MetricsStreaming accumulates short flows into log-bucketed
	// streaming histograms: Results.ShortFlows stays nil and memory is
	// O(1) in flow count, so million-flow sweep replicates cost the same
	// as thousand-flow ones. Counts, mean, stddev, min and max stay
	// exact; percentiles carry a relative error of at most
	// 2^-HistPrecision (see MetricsConfig.HistPrecision).
	MetricsStreaming MetricsMode = "streaming"
)

// MetricsConfig is the measurement section of Config: how per-flow
// results are accumulated and whether the run records a rolling
// time series. The zero value is the historical behaviour — exact
// per-flow records, no snapshots.
type MetricsConfig struct {
	// Mode selects exact per-flow records (default) or O(1)-memory
	// streaming accumulation; see MetricsMode.
	Mode MetricsMode

	// HistPrecision is the streaming histogram's sub-bucket precision in
	// bits: quantile error is bounded by 2^-HistPrecision of the true
	// order statistic. Zero means metrics.DefaultHistPrecision (10 bits,
	// <0.1% error); values outside [metrics.MinHistPrecision,
	// metrics.MaxHistPrecision] are rejected. Used by streaming mode and
	// by snapshot percentiles in either mode.
	HistPrecision int

	// SnapshotInterval, when positive, records a cumulative Snapshot of
	// the run every interval of virtual time into Results.Snapshots:
	// short-flow percentile trajectories plus drop and routing counters.
	// Zero disables (the default); negative is rejected. Enabling
	// snapshots schedules extra engine events, so Results.Events shifts
	// relative to a snapshot-free run; everything else is unchanged.
	SnapshotInterval sim.Time
}

// TraceMode selects how the structured event recorder stores events.
type TraceMode string

// Trace recording modes.
const (
	// TraceOff disables the recorder entirely (the default). Trace
	// points stay compiled in but cost one nil check each; the hot path
	// is allocation-identical to a build without tracing.
	TraceOff TraceMode = ""
	// TraceRing keeps the newest Trace.Buffer events in a preallocated
	// ring — a flight recorder: O(1) memory however long the run, the
	// tail of history available when something goes wrong.
	TraceRing TraceMode = "ring"
	// TraceFull retains every recorded event (up to Trace.MaxEvents) for
	// complete timelines of small runs.
	TraceFull TraceMode = "full"
)

// Default trace storage sizes (see TraceConfig).
const (
	// DefaultTraceBuffer is the ring capacity when Trace.Buffer is zero.
	DefaultTraceBuffer = 65536
	// DefaultTraceMaxEvents caps full-mode retention when
	// Trace.MaxEvents is zero.
	DefaultTraceMaxEvents = 1 << 20
)

// TraceConfig is the observability section of Config: whether a run
// records a structured event trace, how events are stored, and which
// flows are kept. The zero value is off — and off really is free: every
// trace point reduces to a nil-receiver check, pinned by the
// allocation-free forwarding tests and the engine-throughput benchmark.
//
// Tracing observes and never perturbs: a traced run's Results are
// byte-identical to the same config untraced (trace storage lives
// outside the packet pools and consumes no RNG).
type TraceConfig struct {
	// Mode selects off (default), ring, or full storage; the string
	// "off" is accepted as a spelled-out zero value.
	Mode TraceMode

	// Buffer is the ring capacity in events (TraceRing only); zero
	// means DefaultTraceBuffer. One event is 48 bytes, so the default
	// ring holds ~3 MB regardless of run length.
	Buffer int

	// Flows, when non-empty, restricts flow-scoped events to the listed
	// flow IDs (flow IDs start at 1, in spawn order: long flows first).
	// Fabric and control-plane events (drops attributable to no flow,
	// link state, FIB flips, recomputes, faults) are always recorded.
	Flows []uint64

	// MaxEvents bounds full-mode retention; zero means
	// DefaultTraceMaxEvents. Events beyond the cap are counted
	// (Recorder.Lost) but not stored.
	MaxEvents int
}

// recorderOptions translates the public trace section into the
// recorder's own options. Call only after applyDefaults.
func (c *Config) recorderOptions() trace.Options {
	mode := trace.Ring
	if c.Trace.Mode == TraceFull {
		mode = trace.Full
	}
	return trace.Options{
		Mode:      mode,
		Buffer:    c.Trace.Buffer,
		MaxEvents: c.Trace.MaxEvents,
		Flows:     c.Trace.Flows,
	}
}

// Config describes one experiment. The zero value is not runnable; use
// PaperConfig or SmallConfig as starting points, or fill the required
// fields (Protocol, ShortFlows, ArrivalRate).
type Config struct {
	// Topology.
	Topology     TopologyKind // default TopoFatTree
	K            int          // FatTree arity; default 8
	HostsPerEdge int          // hosts per edge switch; default 2*K (4:1 over-subscription)
	LinkRateBps  int64        // default 100 Mb/s
	LinkDelay    sim.Time     // default 20 us per hop
	// QueueLimit is the per-port drop-tail buffer in packets. Default
	// 30 (~3.6 ms of drain at 100 Mb/s): deep enough for bursts, small
	// enough that short flows are not buried in bufferbloat — the
	// regime in which the paper's dynamics (loss -> RTO tails for
	// MPTCP's small subflow windows, reordering-tolerant scatter for
	// MMPTCP) play out.
	QueueLimit int
	// BottleneckBps overrides the inter-switch link rate on the
	// dumbbell topology (0 = same as LinkRateBps). Ignored elsewhere.
	BottleneckBps int64
	// ECNThreshold enables DCTCP-style marking on every queue when
	// positive (packets). Defaults to 10 when Protocol is dctcp.
	ECNThreshold int

	// Protocol.
	Protocol    Protocol
	Subflows    int           // MPTCP/MMPTCP subflows; default 8
	Strategy    core.Strategy // MMPTCP switching strategy
	SwitchBytes int64         // MMPTCP data-volume threshold; default 100 KB
	// PSThreshold selects the packet-scatter duplicate-ACK threshold
	// policy: topology-derived (default) or RR-TCP-like adaptive.
	PSThreshold core.ThresholdMode
	// SACK enables selective-acknowledgement recovery on every sender
	// (ablation: the paper's ns-3 models were NewReno-style).
	SACK bool
	TCP  tcp.Config // segment sizes, RTO bounds; zero fields take defaults

	// Workload: the paper's Figure 1 setup.
	LongFraction  float64  // fraction of hosts running long flows; default 1/3; negative = none
	ShortFlowSize int64    // default 70 KB
	ShortFlows    int      // number of short flows to spawn (required)
	ArrivalRate   float64  // short flows per second per short sender (required)
	Warmup        sim.Time // long-flow head start; default 100 ms

	// Hotspot (roadmap experiment): fraction of short senders
	// redirected to HotspotHost. Zero disables; otherwise the fraction
	// must lie in [0,1] and HotspotHost must index a built host.
	HotspotFraction float64
	HotspotHost     int

	// Deadline is the completion deadline against which short flows are
	// scored (Results.DeadlineMissRate); default 200 ms, a typical
	// partition/aggregate budget from the literature the paper cites.
	Deadline sim.Time

	// Faults schedules network dynamics — link failures, repairs,
	// switch crashes, capacity/delay degradation and random loss —
	// applied while the run executes, plus the routing reconvergence
	// delay that opens a blackhole window after each state change. The
	// zero value leaves the network permanently healthy. Fault
	// randomness (model sampling, loss draws) comes from an RNG stream
	// derived from Seed that is disjoint from the workload's, so adding
	// faults never perturbs the traffic pattern, and RunSweep carries
	// the section unchanged. See FaultsConfig and FailCables.
	Faults FaultsConfig

	// Routing selects the repair and convergence model under failures;
	// see RoutingConfig. Irrelevant on a healthy network: the control
	// plane is only installed when Faults is active, so the healthy hot
	// path is identical in every mode.
	Routing RoutingConfig

	// Transport arms transport-layer failure recovery — subflow
	// re-dialing after persistent RTOs and convergence-aware phase
	// switching; see TransportConfig. The zero value disables both and
	// leaves every run byte-identical to builds without the subsystem.
	Transport TransportConfig

	// Metrics selects exact vs streaming measurement accumulation and
	// optional rolling snapshots; see MetricsConfig. The zero value keeps
	// per-flow records (the historical behaviour).
	Metrics MetricsConfig

	// Trace enables the structured event recorder — a typed flight
	// recorder over transports, queues, routing and faults; see
	// TraceConfig. The zero value is off and costs nothing.
	Trace TraceConfig

	// Control.
	Seed       uint64
	MaxSimTime sim.Time // safety cap; default 300 s of virtual time

	// Shards partitions the fabric across that many event engines run in
	// parallel under conservative lookahead (per-pod on FatTrees,
	// contiguous switch groups otherwise). 0 and 1 run the sequential
	// engine unchanged. Runs are deterministic for a fixed (Seed, Shards):
	// cross-shard deliveries commit in (time, source shard, send order) —
	// see internal/shard and the README's "Parallel engine" section.
	// Negative values are rejected, as is a shard count exceeding the
	// topology's switch count. Layer-wide loss degradation (a Degrade
	// fault with Index -1 and LossRate > 0) shares one RNG across the
	// whole layer and is rejected with Shards > 1; per-cable degradation
	// (DegradeCables) composes fine.
	Shards int
}

// PaperConfig returns the full-scale setup from the paper's Figure 1:
// 512 servers, 4:1 over-subscription, one third long senders, 70 KB
// short flows. flows sets how many short flows to run (the paper plots
// 100,000; that takes a while — see EXPERIMENTS.md).
func PaperConfig(proto Protocol, flows int) Config {
	return Config{
		Topology:     TopoFatTree,
		K:            8,
		HostsPerEdge: 16,
		Protocol:     proto,
		ShortFlows:   flows,
		ArrivalRate:  2.5,
	}
}

// SmallConfig returns a laptop-scale variant preserving the paper's
// shape: a 4:1 over-subscribed K=4 FatTree with 64 hosts.
func SmallConfig(proto Protocol, flows int) Config {
	return Config{
		Topology:     TopoFatTree,
		K:            4,
		HostsPerEdge: 8,
		Protocol:     proto,
		ShortFlows:   flows,
		ArrivalRate:  2.5,
	}
}

func (c *Config) applyDefaults() error {
	if c.Topology == "" {
		c.Topology = TopoFatTree
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.HostsPerEdge == 0 {
		// 2*K hosts per edge switch is the paper's 4:1 edge
		// over-subscription at any FatTree arity (16 hosts/edge at K=8).
		c.HostsPerEdge = 2 * c.K
	}
	if c.LinkRateBps == 0 {
		c.LinkRateBps = 100_000_000
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 20 * sim.Microsecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 30
	}
	if c.Subflows == 0 {
		c.Subflows = 8
	}
	if c.SwitchBytes == 0 {
		c.SwitchBytes = 100_000
	}
	if c.LongFraction == 0 {
		c.LongFraction = 1.0 / 3
	}
	if c.ShortFlowSize == 0 {
		c.ShortFlowSize = 70_000
	}
	if c.Warmup == 0 {
		c.Warmup = 100 * sim.Millisecond
	}
	if c.Deadline == 0 {
		c.Deadline = 200 * sim.Millisecond
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 300 * sim.Second
	}
	if err := c.validateStructure(); err != nil {
		return err
	}
	// Zero takes the default above; a negative value would silently run
	// a nonsense experiment (no subflows, flows that never finish, a run
	// that stops before it starts).
	switch {
	case c.Subflows < 0:
		return fmt.Errorf("mmptcp: negative Subflows %d", c.Subflows)
	case c.ShortFlowSize < 0:
		return fmt.Errorf("mmptcp: negative ShortFlowSize %d", c.ShortFlowSize)
	case c.Warmup < 0:
		return fmt.Errorf("mmptcp: negative Warmup %v", c.Warmup)
	case c.Deadline < 0:
		return fmt.Errorf("mmptcp: negative Deadline %v", c.Deadline)
	case c.MaxSimTime < 0:
		return fmt.Errorf("mmptcp: negative MaxSimTime %v", c.MaxSimTime)
	}
	switch c.Protocol {
	case ProtoTCP, ProtoMPTCP, ProtoMMPTCP:
	case ProtoDCTCP:
		if c.ECNThreshold == 0 {
			c.ECNThreshold = 10
		}
	default:
		return fmt.Errorf("mmptcp: unknown protocol %q", c.Protocol)
	}
	mode, err := routing.ParseMode(string(c.Routing.Mode))
	if err != nil {
		return fmt.Errorf("mmptcp: %w", err)
	}
	c.Routing.Mode = mode
	conv, err := routing.ParseConvergence(string(c.Routing.Convergence))
	if err != nil {
		return fmt.Errorf("mmptcp: %w", err)
	}
	c.Routing.Convergence = conv
	// The value-level rules (negative delays, threshold without window,
	// per-hop delay under atomic) live in one place: routing.Config.
	// Checking here — not only at Install — rejects a bad section even
	// on runs that never install a control plane.
	if err := c.routingConfig().Validate(); err != nil {
		return fmt.Errorf("mmptcp: %w", err)
	}
	// The cross-field rules involving Mode are mmptcp's: everything the
	// control plane implements needs the control plane installed.
	if mode != RoutingGlobal {
		if conv == ConvergeStaggered {
			return fmt.Errorf("mmptcp: staggered convergence requires Routing.Mode %q (local repair has no control plane to stage)", RoutingGlobal)
		}
		if c.Routing.HoldDown > 0 {
			return fmt.Errorf("mmptcp: Routing.HoldDown requires Routing.Mode %q (local repair has no control plane to damp)", RoutingGlobal)
		}
	}
	// Transport recovery: value rules first, then the knobs-while-off
	// rejections (a backoff or budget on disabled recovery would
	// silently do nothing), then the cross-field Mode rule, and only
	// then the defaults for armed mechanisms.
	if c.Transport.DeadRTOs < 0 {
		return fmt.Errorf("mmptcp: negative Transport.DeadRTOs %d (0 disables recovery)", c.Transport.DeadRTOs)
	}
	if c.Transport.RedialBackoff < 0 {
		return fmt.Errorf("mmptcp: negative Transport.RedialBackoff %v", c.Transport.RedialBackoff)
	}
	if c.Transport.RedialBudget < 0 {
		return fmt.Errorf("mmptcp: negative Transport.RedialBudget %d", c.Transport.RedialBudget)
	}
	if c.Transport.MaxDefer < 0 {
		return fmt.Errorf("mmptcp: negative Transport.MaxDefer %v", c.Transport.MaxDefer)
	}
	if c.Transport.DeadRTOs == 0 && (c.Transport.RedialBackoff != 0 || c.Transport.RedialBudget != 0) {
		return fmt.Errorf("mmptcp: Transport.RedialBackoff/RedialBudget set but Transport.DeadRTOs is 0 (re-dialing off)")
	}
	if !c.Transport.DeferPhaseSwitch && c.Transport.MaxDefer != 0 {
		return fmt.Errorf("mmptcp: Transport.MaxDefer set but Transport.DeferPhaseSwitch is off")
	}
	if c.Transport.DeferPhaseSwitch && mode != RoutingGlobal {
		return fmt.Errorf("mmptcp: Transport.DeferPhaseSwitch requires Routing.Mode %q (local repair exposes no convergence signal)", RoutingGlobal)
	}
	if c.Transport.DeadRTOs > 0 {
		if c.Transport.RedialBackoff == 0 {
			c.Transport.RedialBackoff = 10 * sim.Millisecond
		}
		if c.Transport.RedialBudget == 0 {
			c.Transport.RedialBudget = 4
		}
	}
	if c.Transport.DeferPhaseSwitch && c.Transport.MaxDefer == 0 {
		c.Transport.MaxDefer = 50 * sim.Millisecond
	}
	if c.Faults.ReconvergeDelay < 0 {
		return fmt.Errorf("mmptcp: negative Faults.ReconvergeDelay %v", c.Faults.ReconvergeDelay)
	}
	if c.Shards < 0 {
		return fmt.Errorf("mmptcp: negative Shards %d", c.Shards)
	}
	if c.Shards > 1 {
		for i, ev := range c.Faults.Events {
			if ev.Kind == FaultDegrade && ev.Index == -1 && ev.LossRate > 0 {
				return fmt.Errorf("mmptcp: Faults.Events[%d]: layer-wide loss degradation (Index -1, LossRate %v) shares one RNG across the layer and cannot run with Shards %d; target individual cables (DegradeCables) instead",
					i, ev.LossRate, c.Shards)
			}
		}
	}
	switch c.Metrics.Mode {
	case "":
		c.Metrics.Mode = MetricsExact
	case MetricsExact, MetricsStreaming:
	default:
		return fmt.Errorf("mmptcp: unknown metrics mode %q (want %q or %q)",
			c.Metrics.Mode, MetricsExact, MetricsStreaming)
	}
	if c.Metrics.HistPrecision == 0 {
		c.Metrics.HistPrecision = metrics.DefaultHistPrecision
	}
	if p := c.Metrics.HistPrecision; p < metrics.MinHistPrecision || p > metrics.MaxHistPrecision {
		return fmt.Errorf("mmptcp: Metrics.HistPrecision %d outside [%d, %d]",
			p, metrics.MinHistPrecision, metrics.MaxHistPrecision)
	}
	if c.Metrics.SnapshotInterval < 0 {
		return fmt.Errorf("mmptcp: negative Metrics.SnapshotInterval %v", c.Metrics.SnapshotInterval)
	}
	switch c.Trace.Mode {
	case "off": // spelled-out zero value
		c.Trace.Mode = TraceOff
	case TraceOff, TraceRing, TraceFull:
	default:
		return fmt.Errorf("mmptcp: unknown trace mode %q (want %q, %q or %q)",
			c.Trace.Mode, "off", TraceRing, TraceFull)
	}
	if c.Trace.Buffer < 0 {
		return fmt.Errorf("mmptcp: negative Trace.Buffer %d", c.Trace.Buffer)
	}
	if c.Trace.MaxEvents < 0 {
		return fmt.Errorf("mmptcp: negative Trace.MaxEvents %d", c.Trace.MaxEvents)
	}
	if c.Trace.Mode == TraceOff {
		// A sized buffer or a flow filter on a disabled trace is a config
		// bug (the knobs would silently do nothing); reject it loudly.
		if c.Trace.Buffer != 0 || c.Trace.MaxEvents != 0 || len(c.Trace.Flows) != 0 {
			return fmt.Errorf("mmptcp: Trace.Buffer/MaxEvents/Flows set but Trace.Mode is off")
		}
	} else {
		if c.Trace.Buffer == 0 {
			c.Trace.Buffer = DefaultTraceBuffer
		}
		if c.Trace.MaxEvents == 0 {
			c.Trace.MaxEvents = DefaultTraceMaxEvents
		}
	}
	return nil
}

// validateStructure rejects the topology and link values the builders
// would panic on. Call after the structural defaults are applied.
func (c *Config) validateStructure() error {
	if c.HostsPerEdge < 1 {
		return fmt.Errorf("mmptcp: HostsPerEdge must be at least 1, got %d", c.HostsPerEdge)
	}
	switch c.Topology {
	case TopoFatTree, TopoVL2:
		if c.K < 2 || c.K%2 != 0 {
			return fmt.Errorf("mmptcp: %s K must be even and >= 2, got %d", c.Topology, c.K)
		}
	case TopoMultiHomed:
		if c.K < 4 || c.K%2 != 0 {
			return fmt.Errorf("mmptcp: %s K must be even and >= 4, got %d", c.Topology, c.K)
		}
	case TopoDumbbell:
		if c.K*c.HostsPerEdge/2 < 1 {
			return fmt.Errorf("mmptcp: %s needs K*HostsPerEdge/2 >= 1 host per side, got K %d, HostsPerEdge %d",
				c.Topology, c.K, c.HostsPerEdge)
		}
	}
	switch {
	case c.LinkRateBps < 0:
		return fmt.Errorf("mmptcp: negative LinkRateBps %d", c.LinkRateBps)
	case c.BottleneckBps < 0:
		return fmt.Errorf("mmptcp: negative BottleneckBps %d", c.BottleneckBps)
	case c.LinkDelay < 0:
		return fmt.Errorf("mmptcp: negative LinkDelay %v", c.LinkDelay)
	case c.QueueLimit < 0:
		return fmt.Errorf("mmptcp: negative QueueLimit %d", c.QueueLimit)
	}
	return nil
}

// Shape is the comparable structural key run-instance pooling uses: the
// Config fields that determine the built engine+network (topology kind
// and size, link parameters, queueing, ECN). Two Configs with equal
// Shapes can recycle one instance; everything else — protocol, workload,
// faults, routing, metrics, seed — is per-run state that RunInstance
// reset restores.
type Shape struct {
	Topology      TopologyKind
	K             int
	HostsPerEdge  int
	LinkRateBps   int64
	LinkDelay     sim.Time
	QueueLimit    int
	BottleneckBps int64
	ECNThreshold  int
	// Shards is structural: the partition wiring (per-shard engines,
	// pools, outbox routing) is built with the instance, so a pooled
	// instance only serves configs sharing its shard count.
	Shards int
}

// Shape returns the config's structural pool key, after applying
// defaults so that configs spelling the same structure differently
// (explicit vs defaulted fields) share a key. It fails on configs that
// would not run at all.
func (c Config) Shape() (Shape, error) {
	if err := c.applyDefaults(); err != nil { // c is a copy
		return Shape{}, err
	}
	return c.shape(), nil
}

// shape assumes defaults have been applied.
func (c *Config) shape() Shape {
	return Shape{
		Topology:      c.Topology,
		K:             c.K,
		HostsPerEdge:  c.HostsPerEdge,
		LinkRateBps:   c.LinkRateBps,
		LinkDelay:     c.LinkDelay,
		QueueLimit:    c.QueueLimit,
		BottleneckBps: c.BottleneckBps,
		ECNThreshold:  c.ECNThreshold,
		Shards:        c.Shards,
	}
}

// routingConfig translates the public routing section into the control
// plane's own config (shared by validation and Install-time wiring).
func (c *Config) routingConfig() routing.Config {
	return routing.Config{
		Convergence:   routing.Convergence(c.Routing.Convergence),
		PerHopDelay:   c.Routing.PerHopDelay,
		HoldDown:      c.Routing.HoldDown,
		FlapThreshold: c.Routing.FlapThreshold,
		Workers:       c.Shards,
	}
}

// validateWorkload checks the fields only Run needs.
func (c *Config) validateWorkload() error {
	if c.ShortFlows <= 0 {
		return fmt.Errorf("mmptcp: ShortFlows must be positive, got %d", c.ShortFlows)
	}
	if c.ArrivalRate <= 0 {
		return fmt.Errorf("mmptcp: ArrivalRate must be positive, got %v", c.ArrivalRate)
	}
	if c.LongFraction >= 1 {
		return fmt.Errorf("mmptcp: LongFraction %v must be below 1", c.LongFraction)
	}
	if f := c.HotspotFraction; math.IsNaN(f) || f < 0 || f > 1 {
		return fmt.Errorf("mmptcp: HotspotFraction %v out of [0,1]", f)
	}
	if c.HotspotFraction > 0 && c.HotspotHost < 0 {
		return fmt.Errorf("mmptcp: HotspotHost %d is negative", c.HotspotHost)
	}
	return nil
}

// buildNetwork constructs the configured topology.
func (c *Config) buildNetwork(eng *sim.Engine) (*topology.Network, error) {
	link := topology.LinkConfig{
		RateBps:      c.LinkRateBps,
		Delay:        c.LinkDelay,
		QueueLimit:   c.QueueLimit,
		ECNThreshold: c.ECNThreshold,
	}
	switch c.Topology {
	case TopoFatTree:
		ft := topology.NewFatTree(eng, topology.FatTreeConfig{
			K: c.K, HostsPerEdge: c.HostsPerEdge, Link: link, Seed: c.Seed,
		})
		return &ft.Network, nil
	case TopoMultiHomed:
		m := topology.NewMultiHomed(eng, topology.MultiHomedConfig{
			K: c.K, HostsPerEdge: c.HostsPerEdge, Link: link, Seed: c.Seed,
		})
		return &m.Network, nil
	case TopoDumbbell:
		d := topology.NewDumbbell(eng, topology.DumbbellConfig{
			HostsPerSide:  c.K * c.HostsPerEdge / 2,
			Link:          link,
			BottleneckBps: c.BottleneckBps,
		})
		return &d.Network, nil
	case TopoVL2:
		v := topology.NewVL2(eng, topology.VL2Config{
			DA:          c.K,
			DI:          c.K,
			HostsPerToR: c.HostsPerEdge,
			Link:        link,
			Seed:        c.Seed,
		})
		return &v.Network, nil
	default:
		return nil, fmt.Errorf("mmptcp: unknown topology %q", c.Topology)
	}
}
