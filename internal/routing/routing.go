// Package routing is the global routing control plane. Without it,
// reconvergence is link-local: each switch filters its own route-dead
// links out of its equal-cost sets (netem.LiveLinks), but upstream ECMP
// keeps hashing onto next hops that lost their only way forward — a core
// switch whose sole downlink to a pod died still receives that pod's
// traffic and drops it as NoRoute. The control plane closes that gap:
// every switch owns a FIB (its structural router, its own override
// table, and an epoch counter versioning applied updates), and whenever
// the fault injector flips a link's routing state (reconvergence-
// delayed), the plane recomputes global reachability with a breadth-
// first pass over the live links and overrides exactly the (switch,
// destination) entries whose equal-cost sets diverge from the structural
// fast path.
//
// Recompute is a two-stage pipeline. Stage one computes the target
// tables incrementally: hop-distance maps are cached per live-attachment
// signature (all hosts sharing the same set of live access switches
// share one reverse BFS) and stay valid across recomputes; a link
// transition invalidates only the signatures whose shortest-path DAG the
// flipped link can belong to (see entryDirty), and destinations whose
// distances and equal-cost sets are provably untouched are skipped
// entirely. Stage two distributes the targets. Under ConvergeAtomic
// (the default) every FIB flips in place at recompute time — one global
// table swap, the pre-staged behaviour bit for bit. Under
// ConvergeStaggered each FIB's flip is scheduled at its own virtual
// time: recompute time plus PerHopDelay for every hop the switch sits
// from the nearest element of the transition batch, the way real
// control planes converge outward from a failure. While flips are
// outstanding the fabric disagrees with itself — micro-loops and
// transient blackholes — and the FIBs make that observable: Stale
// reports a staged-but-unflipped table, Transient reports the open
// network-wide window, and Stats records the flip spread and cumulative
// window time.
//
// The plane also dampens churn: with Config.HoldDown set, a link whose
// routing state flips more than FlapThreshold times inside the trailing
// hold-down window stops triggering immediate recomputes — its pending
// transitions are folded into one deferred rebuild at window expiry, the
// way real control planes suppress flapping advertisements.
//
// The healthy network never pays for the indirection beyond a nil check:
// overrides exist only for destinations whose reachability actually
// changed, every other lookup falls through to the structural router.
// Recomputes are coalesced — any number of simultaneous link transitions
// trigger exactly one rebuild — and everything is deterministic: passes
// iterate hosts and switches in builder order and flips are scheduled in
// builder order, so identical fault schedules yield byte-identical
// routing at any sweep worker count. Incrementality is behaviour-neutral
// by construction; TestIncrementalMatchesFullRecompute asserts this
// against ForceFullRecompute, and the staggered path with PerHopDelay=0
// degenerates to atomic exactly (flips due "now" apply inline).
package routing

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ForceFullRecompute, when set, disables the incremental invalidation
// logic: every recompute discards the distance cache and rebuilds every
// destination, exactly like the pre-incremental control plane. Only the
// incremental-vs-full equivalence tests set it; runs must not toggle it
// concurrently (it is read at recompute time).
var ForceFullRecompute bool

// Mode selects the repair model for a run.
type Mode string

const (
	// Local is the baseline: switches exclude their own route-dead links
	// and nothing else — upstream ECMP stays oblivious.
	Local Mode = "local"
	// Global recomputes reachability network-wide after each
	// (reconvergence-delayed) link state change, so ECMP everywhere
	// steers around paths that cannot reach the destination.
	Global Mode = "global"
)

// ParseMode validates a mode string; empty means Local.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", Local:
		return Local, nil
	case Global:
		return Global, nil
	}
	return "", fmt.Errorf("routing: unknown mode %q (want %q or %q)", s, Local, Global)
}

// Convergence selects how recomputed tables reach the switches.
type Convergence string

const (
	// Atomic flips every switch's table at recompute time — one global
	// swap, no transient disagreement. This is the default and the
	// pre-staged behaviour bit for bit.
	Atomic Convergence = "atomic"
	// Staggered schedules each switch's flip at its own time: recompute
	// time plus Config.PerHopDelay per hop from the nearest element of
	// the transition batch. Switches disagree until the last flip lands,
	// opening the micro-loop / transient-blackhole window real control
	// planes exhibit.
	Staggered Convergence = "staggered"
)

// ParseConvergence validates a convergence string; empty means Atomic.
func ParseConvergence(s string) (Convergence, error) {
	switch Convergence(s) {
	case "", Atomic:
		return Atomic, nil
	case Staggered:
		return Staggered, nil
	}
	return "", fmt.Errorf("routing: unknown convergence %q (want %q or %q)", s, Atomic, Staggered)
}

// Config tunes an installed control plane. The zero value is the
// classic plane: atomic convergence, no flap damping.
type Config struct {
	// Convergence picks atomic (default) or staggered table flips.
	Convergence Convergence
	// PerHopDelay is the extra flip delay per hop a switch sits from the
	// nearest failed (or repaired) element, under Staggered convergence.
	// Zero makes Staggered degenerate to Atomic exactly. Must not be
	// negative.
	PerHopDelay sim.Time
	// HoldDown enables flap damping: a link whose routing state
	// transitions more than FlapThreshold times within this trailing
	// window stops triggering immediate recomputes; its pending flips
	// fold into one deferred rebuild at window expiry. Zero disables.
	HoldDown sim.Time
	// FlapThreshold is the number of transitions inside one hold-down
	// window a link may make before it is damped; defaults to 3 when
	// HoldDown is set. Must not be negative.
	FlapThreshold int
	// Workers bounds the goroutines a recompute may fan its breadth-first
	// passes across. Values below 2 keep the recompute fully serial (the
	// default). Parallelism changes nothing observable: missing distance
	// maps are discovered, counted and inserted in destination order on
	// the calling thread, and each map is a pure function of its job's
	// sources — only the map filling itself runs concurrently. The
	// sharded run harness sets this to its shard count.
	Workers int
}

// Validate checks the config for contradictions. Install runs it, and
// the public mmptcp.Config surface calls it up front so a bad value is
// rejected even on runs that never install a control plane.
func (c Config) Validate() error {
	conv, err := ParseConvergence(string(c.Convergence))
	if err != nil {
		return err
	}
	if c.PerHopDelay < 0 {
		return fmt.Errorf("routing: negative PerHopDelay %v", c.PerHopDelay)
	}
	if c.PerHopDelay > 0 && conv != Staggered {
		return fmt.Errorf("routing: PerHopDelay is only meaningful with Convergence %q", Staggered)
	}
	if c.HoldDown < 0 {
		return fmt.Errorf("routing: negative HoldDown %v", c.HoldDown)
	}
	if c.FlapThreshold < 0 {
		return fmt.Errorf("routing: negative FlapThreshold %d", c.FlapThreshold)
	}
	if c.FlapThreshold > 0 && c.HoldDown == 0 {
		return fmt.Errorf("routing: FlapThreshold %d without HoldDown does nothing (set the damping window too)", c.FlapThreshold)
	}
	return nil
}

// Stats reports the control plane's work during a run.
type Stats struct {
	// Recomputes counts global table rebuilds (coalesced: simultaneous
	// link transitions share one).
	Recomputes int
	// LastConvergence is the virtual time of the most recent rebuild.
	LastConvergence sim.Time
	// Overrides is the number of (switch, destination) entries whose
	// equal-cost sets diverge from the structural routers' live-filtered
	// answers after the last rebuild (entries installed only to pin the
	// static baseline are not counted). Under staggered convergence the
	// count is refreshed again when the transient window closes, so it
	// reflects the tables actually serving lookups.
	Overrides int

	// DstRecomputed counts destinations whose tables were reconciled
	// across all recomputes, and DstSkipped those proven untouched by
	// the transition batch and skipped outright. Before incremental
	// recompute every rebuild reconciled every destination, i.e.
	// DstSkipped was identically zero.
	DstRecomputed int
	DstSkipped    int
	// BFSRuns counts reverse breadth-first passes actually executed;
	// destinations sharing a live-attachment signature share one, and
	// cached passes from earlier recomputes are reused outright.
	BFSRuns int

	// Staggered-convergence accounting; identically zero under Atomic.
	// Flips counts per-switch table flips applied. FirstFlip and
	// LastFlip bracket the most recent transition's flip schedule (the
	// convergence spread), and TransientTime accumulates, across all
	// transitions, the virtual time during which at least one switch
	// still served a stale table.
	Flips         int
	FirstFlip     sim.Time
	LastFlip      sim.Time
	TransientTime sim.Time

	// Damped counts link transitions whose recompute was deferred by
	// the hold-down timer (zero unless Config.HoldDown is set).
	Damped int
}

// FIB is one switch's forwarding-table object: the structural base
// router, the override entries currently serving lookups, an optional
// staged table awaiting its scheduled flip, and the epoch counter
// versioning applied flips. On a healthy network override is nil and
// every lookup is a nil check plus the base call. FIB implements
// netem.VersionedRouter so the data plane can attribute damage done
// while the fabric disagrees with itself.
type FIB struct {
	cp   *ControlPlane
	base netem.Router
	// swID is the owning switch, for trace identity on flip events.
	swID netem.NodeID
	// override serves lookups; target, when non-nil, is the recomputed
	// table staged for this switch but not yet flipped in.
	override map[netem.NodeID][]*netem.Link
	target   map[netem.NodeID][]*netem.Link
	// flipAt is the scheduled flip time of the current target. Each
	// batch schedules its own flip event; an event is authoritative only
	// if it fires exactly at flipAt, so a batch that re-stages a switch
	// with a pending flip moves the flip to its own schedule instead of
	// letting the stale event install the fresher table early.
	flipAt sim.Time
	epoch  uint64
}

// NextLinks implements netem.Router: overrides first, structural fast
// path otherwise.
func (f *FIB) NextLinks(dst netem.NodeID) []*netem.Link {
	if f.override != nil {
		if eq, ok := f.override[dst]; ok {
			return eq
		}
	}
	return f.base.NextLinks(dst)
}

// Staging implements netem.VersionedRouter: whether staged convergence
// is enabled at all. Under atomic convergence the switch skips the
// per-lookup epoch consultation entirely.
func (f *FIB) Staging() bool { return f.cp.staggered() }

// Epoch implements netem.VersionedRouter: the number of table flips this
// switch has applied. Atomic convergence flips all switches in place and
// leaves epochs at zero.
func (f *FIB) Epoch() uint64 { return f.epoch }

// Stale implements netem.VersionedRouter: a recomputed table is staged
// at this switch but has not yet flipped in.
func (f *FIB) Stale() bool { return f.target != nil }

// Transient implements netem.VersionedRouter: the network-wide staggered
// window is open — some switch flipped to the new tables while another
// still serves the old ones.
func (f *FIB) Transient() bool { return f.cp.staleFIBs > 0 }

// ConvergenceObserver is the transport-facing view of the control
// plane's convergence state: whether routing is still settling after a
// topology change. MMPTCP's phase switch consults it to avoid re-homing
// a flow's subflows onto tables that are mid-flip (transiently looping
// or black-holing). Observing never schedules events or mutates state.
type ConvergenceObserver interface {
	// ConvergenceOpen reports that a convergence episode is in
	// progress: a recompute is pending or scheduled, flap damping is
	// holding transitions back, or staggered per-switch flips have not
	// all landed.
	ConvergenceOpen() bool
}

// ConvergenceOpen implements ConvergenceObserver for the global control
// plane: true while an invalidation awaits its recompute (dirty), a
// hold-down window defers transitions (deferredPending), or staged
// tables await their flips (staleFIBs).
func (cp *ControlPlane) ConvergenceOpen() bool {
	return cp.dirty || cp.deferredPending || cp.staleFIBs > 0
}

var _ ConvergenceObserver = (*ControlPlane)(nil)

// stage records dst's computed equal-cost set into the FIB's target
// table, lazily forking it from the serving table on the first actual
// divergence (an entry exists exactly when eq differs from the healthy
// structural baseline, the same invariant the serving table keeps).
func (f *FIB) stage(dst netem.NodeID, eq, healthy []*netem.Link) {
	cur := f.override
	if f.target != nil {
		cur = f.target
	}
	have, havePresent := cur[dst]
	wantPresent := !sameLinks(eq, healthy)
	if wantPresent == havePresent && (!wantPresent || sameLinks(eq, have)) {
		return
	}
	if f.target == nil {
		f.target = make(map[netem.NodeID][]*netem.Link, len(f.override)+1)
		for k, v := range f.override {
			f.target[k] = v
		}
		f.cp.staleFIBs++
		if f.cp.staleFIBs == 1 {
			f.cp.windowOpenedAt = f.cp.eng.Now()
		}
	}
	if wantPresent {
		f.target[dst] = eq
	} else {
		delete(f.target, dst)
	}
}

// applyFlip installs the staged table as the serving one and closes the
// transient window if this was the last stale FIB.
func (f *FIB) applyFlip() {
	if len(f.target) == 0 {
		f.override = nil // restore the documented nil-check fast path
	} else {
		f.override = f.target
	}
	f.target = nil
	f.epoch++
	cp := f.cp
	if cp.rec != nil {
		cp.rec.Record(cp.eng.Now(), trace.KindFIBFlip, 0, -1, int32(f.swID), -1,
			int64(f.epoch), int64(len(f.override)))
	}
	cp.stats.Flips++
	cp.staleFIBs--
	if cp.staleFIBs == 0 {
		cp.stats.TransientTime += cp.eng.Now() - cp.windowOpenedAt
		// The window just closed on tables the recompute-time override
		// count never saw. Flips nil empty maps themselves, so nothing
		// needs fixing on the forwarding path — just mark the stat stale
		// and let Stats() recount once when somebody actually reads it,
		// instead of scanning every FIB on every window close.
		cp.overridesStale = true
	}
}

// flip records one routing-visible link transition for the invalidation
// pass: the link's endpoints and the direction of the change.
type flip struct {
	u, v netem.NodeID // src and dst switch of the flipped link
	dead bool         // true: became route-dead; false: became route-live
}

// distEntry is one cached reverse-BFS result: hop distances from every
// reachable switch to the destinations sharing one live-attachment
// signature. epoch records the recompute that (re)built it.
type distEntry struct {
	dist  map[netem.NodeID]int32
	epoch uint64
}

// flapState tracks one link's most recent routing transitions — a ring
// of at most FlapThreshold+1 timestamps, enough to answer the exact
// trailing-window question "did more than FlapThreshold transitions
// land within the last HoldDown?" without a resettable counter's blind
// spot (steady flapping that straddles a fixed window's reset).
type flapState struct {
	times []sim.Time
	idx   int // oldest entry once the ring is full; next overwrite slot
}

// ControlPlane owns the FIBs of one built network and rebuilds their
// override entries on demand. Create with Install, trigger with
// Invalidate (typically wired to faults.Injector.OnRouteChange).
type ControlPlane struct {
	eng *sim.Engine
	net *topology.Network
	cfg Config

	// fibs is parallel to net.Switches.
	fibs []*FIB

	// healthy[i][j] is switch i's structural equal-cost set toward host
	// j on the undamaged network, snapshotted at install (builders hand
	// over healthy networks; faults only fire once the engine runs).
	// Reconciliation compares computed sets against these static
	// baselines — not against the live-filtered base lookup — so whether
	// a (switch, destination) override exists depends only on the
	// computed set, which is exactly the property that lets the
	// incremental pass skip destinations its predicate proves untouched.
	healthy [][][]*netem.Link

	// Immutable adjacency, computed once at install.
	out    map[netem.NodeID][]*netem.Link // outgoing links per node
	in     map[netem.NodeID][]*netem.Link // incoming links per node
	isHost map[netem.NodeID]bool
	ordOf  map[netem.NodeID]int // switch NodeID -> ordinal in builder order

	dirty bool
	// pending accumulates the switch-to-switch link transitions since
	// the last recompute; host-incident transitions never affect switch
	// tables except through the attachment signature, which is
	// recomputed per destination anyway. seeds carries the switch
	// endpoints of host-incident transitions: the invalidation pass
	// ignores them, but the staggered flip-delay BFS needs the failure's
	// location, and the hold-down expiry path needs them to see that
	// damped host-link transitions are still unconsumed.
	pending []flip
	seeds   []netem.NodeID
	// fullPending forces the next recompute to invalidate everything
	// (set by Invalidate(nil), the escape hatch for callers that cannot
	// name the changed link).
	fullPending bool

	// distCache maps a destination's live-attachment signature to its
	// cached distance map; entries survive recomputes until a flip
	// invalidates them. hostSig remembers each host's signature as of
	// its last reconciliation, so a host whose attachment changed is
	// reconciled even when its new signature's entry is cached.
	distCache map[string]*distEntry
	hostSig   [][]byte
	epoch     uint64

	// Staggered-convergence state: flipDist is the per-switch hop
	// distance from the current batch's seeds (reused across batches),
	// staleFIBs counts switches whose target table awaits its flip,
	// windowOpenedAt stamps when staleFIBs last left zero, and
	// overridesStale marks that flips changed serving tables after the
	// last override recount (Stats refreshes lazily).
	flipDist       []int32
	staleFIBs      int
	windowOpenedAt sim.Time
	overridesStale bool
	flipFn         func(any)

	// Flap damping state (active only with cfg.HoldDown > 0).
	flap            map[*netem.Link]*flapState
	deferredPending bool
	deferredFn      func()

	// Reusable scratch: recycled distance maps, the two BFS frontier
	// slices, the signature key buffer and the BFS source-link buffer.
	freeMaps []map[netem.NodeID]int32
	frontier []netem.NodeID
	next     []netem.NodeID
	keyBuf   []byte
	srcBuf   []*netem.Link

	// missing is the recompute scratch holding the BFS jobs of one pass:
	// the distance maps absent from distCache, discovered in destination
	// order and computed serially or across cfg.Workers goroutines.
	missing []bfsJob

	// recomputeFn is the cached engine callback (avoids a method-value
	// allocation per coalesced batch).
	recomputeFn func()

	// rec, when non-nil, receives structured trace events (recompute
	// start/end, per-switch FIB flips, damping defer/expiry); every
	// trace point is nil-guarded.
	rec *trace.Recorder

	stats Stats
}

// Install wraps every switch's router of the network with a FIB and
// returns the plane. Until the first Invalidate the FIBs are pure
// pass-throughs, so installing on a network that never degrades is
// behaviour-neutral. cfg tunes convergence and damping; the zero value
// is the classic atomic plane.
func Install(eng *sim.Engine, net *topology.Network, cfg Config) (*ControlPlane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.HoldDown > 0 && cfg.FlapThreshold == 0 {
		cfg.FlapThreshold = 3
	}
	cp := &ControlPlane{
		eng:       eng,
		net:       net,
		cfg:       cfg,
		out:       make(map[netem.NodeID][]*netem.Link),
		in:        make(map[netem.NodeID][]*netem.Link),
		isHost:    make(map[netem.NodeID]bool, len(net.Hosts)),
		ordOf:     make(map[netem.NodeID]int, len(net.Switches)),
		distCache: make(map[string]*distEntry),
		hostSig:   make([][]byte, len(net.Hosts)),
	}
	for _, l := range net.Links {
		cp.out[l.Src().ID()] = append(cp.out[l.Src().ID()], l)
		cp.in[l.Dst().ID()] = append(cp.in[l.Dst().ID()], l)
	}
	for _, h := range net.Hosts {
		cp.isHost[h.ID()] = true
	}
	for i, sw := range net.Switches {
		cp.ordOf[sw.ID()] = i
	}
	cp.fibs = make([]*FIB, 0, len(net.Switches))
	net.WrapRouters(func(sw *netem.Switch, base netem.Router) netem.Router {
		f := &FIB{cp: cp, base: base, swID: sw.ID()}
		cp.fibs = append(cp.fibs, f)
		return f
	})
	cp.healthy = make([][][]*netem.Link, len(cp.fibs))
	for i, f := range cp.fibs {
		cp.healthy[i] = make([][]*netem.Link, len(net.Hosts))
		for j, h := range net.Hosts {
			eq := f.base.NextLinks(h.ID())
			cp.healthy[i][j] = append([]*netem.Link(nil), eq...)
		}
	}
	cp.recomputeFn = cp.Recompute
	cp.flipFn = func(a any) {
		f := a.(*FIB)
		// Authoritative only when this event IS the current schedule: a
		// later batch that re-staged the switch moved flipAt to its own
		// time (and scheduled its own event), and an inline apply left
		// no target at all.
		if f.target != nil && eng.Now() == f.flipAt {
			f.applyFlip()
		}
	}
	if cfg.HoldDown > 0 {
		cp.flap = make(map[*netem.Link]*flapState)
		cp.deferredFn = cp.deferredRecompute
	}
	return cp, nil
}

// Stats returns the work counters. A still-open transient window (under
// sustained churn new batches can re-stage tables before the previous
// flips all land, so the fabric never fully agrees) is included in
// TransientTime up to the current virtual time, and the override count
// is refreshed if flips changed serving tables since the last recount.
func (cp *ControlPlane) Stats() Stats {
	if cp.overridesStale {
		cp.recountOverrides()
		cp.overridesStale = false
	}
	st := cp.stats
	if cp.staleFIBs > 0 {
		st.TransientTime += cp.eng.Now() - cp.windowOpenedAt
	}
	return st
}

func (cp *ControlPlane) staggered() bool { return cp.cfg.Convergence == Staggered }

// SetRecorder installs (or, with nil, removes) the structured event
// recorder. The run harness calls this right after Install.
func (cp *ControlPlane) SetRecorder(r *trace.Recorder) { cp.rec = r }

// Invalidate marks the tables stale and schedules one recompute at the
// current virtual time. Any number of Invalidate calls before that
// recompute runs coalesce into it — a switch crash that deadens dozens
// of ports at one instant costs a single table rebuild. The flipped link
// (its state already changed) scopes the recompute to the destinations
// it can affect; a nil link conservatively invalidates everything. A
// link the hold-down policy has damped defers the rebuild to the end of
// its flap window instead of triggering one now.
func (cp *ControlPlane) Invalidate(l *netem.Link) {
	damped := false
	if l == nil {
		cp.fullPending = true
	} else {
		u, v := l.Src().ID(), l.Dst().ID()
		// Host uplinks never appear in switch tables or distance maps,
		// and switch->host downlinks only matter through the
		// destination's attachment signature: neither needs an
		// invalidation record. Their switch endpoint is still recorded
		// as a seed — the staggered flip-delay pass starts there, and
		// the hold-down expiry path must see the transition as
		// unconsumed even in atomic mode.
		if !cp.isHost[u] && !cp.isHost[v] {
			cp.pending = append(cp.pending, flip{u: u, v: v, dead: l.RouteDead()})
		} else {
			if !cp.isHost[u] {
				cp.seeds = append(cp.seeds, u)
			}
			if !cp.isHost[v] {
				cp.seeds = append(cp.seeds, v)
			}
		}
		damped = cp.noteFlap(l)
	}
	if cp.dirty {
		return
	}
	if damped {
		cp.stats.Damped++
		if cp.rec != nil && l != nil {
			cp.rec.Record(cp.eng.Now(), trace.KindDampDefer, 0, -1,
				int32(l.Src().ID()), int32(l.Dst().ID()), int64(cp.stats.Damped), 0)
		}
		if !cp.deferredPending {
			cp.deferredPending = true
			cp.eng.Schedule(cp.cfg.HoldDown, cp.deferredFn)
		}
		return
	}
	cp.dirty = true
	cp.eng.Schedule(0, cp.recomputeFn)
}

// noteFlap records one routing transition of l and reports whether the
// link is damped: strictly more than FlapThreshold transitions inside
// the trailing HoldDown window ending now.
func (cp *ControlPlane) noteFlap(l *netem.Link) bool {
	if cp.cfg.HoldDown <= 0 {
		return false
	}
	now := cp.eng.Now()
	st := cp.flap[l]
	if st == nil {
		st = &flapState{times: make([]sim.Time, 0, cp.cfg.FlapThreshold+1)}
		cp.flap[l] = st
	}
	if len(st.times) == cp.cfg.FlapThreshold+1 {
		st.times[st.idx] = now
		st.idx = (st.idx + 1) % len(st.times)
	} else {
		st.times = append(st.times, now)
	}
	if len(st.times) <= cp.cfg.FlapThreshold {
		return false
	}
	// The ring holds the FlapThreshold+1 most recent transitions; the
	// link is flapping iff the oldest of them is still inside the
	// trailing window.
	return now-st.times[st.idx] <= cp.cfg.HoldDown
}

// deferredRecompute is the hold-down expiry callback: it rebuilds the
// tables only if damped transitions are still unconsumed (an undamped
// transition in the meantime will have folded them into its own
// recompute).
func (cp *ControlPlane) deferredRecompute() {
	cp.deferredPending = false
	if cp.dirty {
		return
	}
	if len(cp.pending) == 0 && len(cp.seeds) == 0 && !cp.fullPending {
		return
	}
	if cp.rec != nil {
		cp.rec.Record(cp.eng.Now(), trace.KindDampExpire, 0, -1, -1, -1,
			int64(len(cp.pending)+len(cp.seeds)), 0)
	}
	cp.Recompute()
}

// Recompute rebuilds the override entries invalidated by the transitions
// since the last pass — stage one of the pipeline — and then distributes
// them: atomically in place, or (staggered) as per-switch flips
// scheduled by distance from the batch's seeds. It is normally reached
// through Invalidate; tests may call it directly (a direct call with no
// recorded transitions re-verifies signatures but reuses every cached
// distance map).
func (cp *ControlPlane) Recompute() {
	cp.dirty = false
	cp.stats.Recomputes++
	cp.stats.LastConvergence = cp.eng.Now()
	cp.epoch++
	tracing := cp.rec != nil
	if tracing {
		cp.rec.Record(cp.eng.Now(), trace.KindRecomputeStart, 0, -1, -1, -1,
			int64(len(cp.pending)+len(cp.seeds)), int64(cp.stats.Recomputes))
	}
	recBefore, skipBefore := cp.stats.DstRecomputed, cp.stats.DstSkipped

	staggered := cp.staggered()
	if staggered {
		// Flip delays derive from the batch about to be consumed; compute
		// them before the invalidation pass clears it.
		cp.computeFlipDelays()
	}

	if ForceFullRecompute || cp.fullPending {
		for key, e := range cp.distCache {
			cp.dropEntry(key, e)
		}
	} else if len(cp.pending) > 0 {
		for key, e := range cp.distCache {
			if cp.entryDirty(e) {
				cp.dropEntry(key, e)
			}
		}
	}
	cp.pending = cp.pending[:0]
	cp.seeds = cp.seeds[:0]
	cp.fullPending = false

	// Stage the missing distance maps: one BFS job per distinct absent
	// signature, discovered in destination order. Inserting the entry
	// (with its recycled map) at discovery time both deduplicates jobs
	// and keeps the freeMaps pop order — and therefore every byte of the
	// result — identical to the lazy serial pass this replaces.
	cp.missing = cp.missing[:0]
	for _, h := range cp.net.Hosts {
		cp.signature(h.ID())
		if _, ok := cp.distCache[string(cp.keyBuf)]; ok {
			continue
		}
		e := &distEntry{dist: cp.grabMap(), epoch: cp.epoch}
		cp.distCache[string(cp.keyBuf)] = e
		cp.stats.BFSRuns++
		cp.missing = append(cp.missing, bfsJob{
			entry:   e,
			sources: append([]*netem.Link(nil), cp.srcBuf...),
		})
	}
	cp.runBFS()

	for i, h := range cp.net.Hosts {
		dst := h.ID()
		cp.signature(dst)
		e := cp.distCache[string(cp.keyBuf)]
		// A destination needs reconciling when its distances were
		// rebuilt this pass, or when its attachment signature changed
		// (same cached distances, different access links in the edge
		// switches' equal-cost sets). Otherwise nothing about its
		// tables can have moved and the whole destination is skipped.
		if e.epoch == cp.epoch || !bytes.Equal(cp.keyBuf, cp.hostSig[i]) {
			cp.reconcile(i, dst, e.dist, staggered)
			cp.hostSig[i] = append(cp.hostSig[i][:0], cp.keyBuf...)
			cp.stats.DstRecomputed++
		} else {
			cp.stats.DstSkipped++
		}
	}

	if staggered {
		cp.flushFlips()
	}
	cp.recountOverrides()
	cp.overridesStale = false
	if tracing {
		cp.rec.Record(cp.eng.Now(), trace.KindRecomputeEnd, 0, -1, -1, -1,
			int64(cp.stats.DstRecomputed-recBefore), int64(cp.stats.DstSkipped-skipBefore))
	}
}

// recountOverrides refreshes Stats.Overrides against the tables
// currently serving lookups, dropping empty override maps back to the
// nil-check fast path.
func (cp *ControlPlane) recountOverrides() {
	live := 0
	for _, f := range cp.fibs {
		if len(f.override) == 0 {
			// Fully healed: drop the empty map so the forwarding path
			// returns to the documented nil-check fast path.
			f.override = nil
			continue
		}
		// Count only entries that diverge from the live-filtered
		// structural answer. Reconciliation installs overrides against
		// the static healthy baseline (so override existence is a pure
		// function of the computed set — what makes skipping sound),
		// which also pins entries the live filter would have answered
		// identically; excluding those here keeps the reported metric
		// identical to the pre-incremental control plane's.
		for dst, eq := range f.override {
			if !sameLinks(eq, f.base.NextLinks(dst)) {
				live++
			}
		}
	}
	cp.stats.Overrides = live
}

// computeFlipDelays assigns every switch its hop distance from the
// nearest seed of the current transition batch (the endpoints of the
// flipped links), breadth-first over the live fabric. Switches the flood
// cannot reach — their side of a partition — converge one hop after the
// farthest reached switch, so every staged table still lands. A full
// invalidation (no nameable seeds) flips everything at distance zero,
// i.e. atomically.
func (cp *ControlPlane) computeFlipDelays() {
	if cp.flipDist == nil {
		cp.flipDist = make([]int32, len(cp.net.Switches))
	}
	if cp.fullPending || (len(cp.pending) == 0 && len(cp.seeds) == 0) {
		for i := range cp.flipDist {
			cp.flipDist[i] = 0
		}
		cp.seeds = cp.seeds[:0]
		return
	}
	for i := range cp.flipDist {
		cp.flipDist[i] = -1
	}
	frontier := cp.frontier[:0]
	seed := func(id netem.NodeID) {
		if ord, ok := cp.ordOf[id]; ok && cp.flipDist[ord] < 0 {
			cp.flipDist[ord] = 0
			frontier = append(frontier, id)
		}
	}
	for _, f := range cp.pending {
		seed(f.u)
		seed(f.v)
	}
	for _, id := range cp.seeds {
		seed(id)
	}
	cp.seeds = cp.seeds[:0]
	maxD := int32(0)
	next := cp.next[:0]
	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			d := cp.flipDist[cp.ordOf[v]]
			for _, l := range cp.out[v] {
				if l.RouteDead() {
					continue
				}
				u := l.Dst().ID()
				ord, ok := cp.ordOf[u]
				if !ok || cp.flipDist[ord] >= 0 {
					continue
				}
				cp.flipDist[ord] = d + 1
				if d+1 > maxD {
					maxD = d + 1
				}
				next = append(next, u)
			}
		}
		frontier, next = next, frontier
	}
	cp.frontier, cp.next = frontier[:0], next[:0]
	for i := range cp.flipDist {
		if cp.flipDist[i] < 0 {
			cp.flipDist[i] = maxD + 1
		}
	}
}

// flushFlips distributes the staged tables: every FIB with a target
// flips at recompute time plus PerHopDelay per hop of flip distance —
// inline when that is now (the seeds themselves, or PerHopDelay zero),
// as a scheduled event otherwise. A switch re-staged while an earlier
// flip is still in flight moves to this batch's schedule (flipAt); the
// superseded event fires off-schedule and is ignored, so a fresher
// table is never installed earlier than its own flip time. Scheduling
// walks switches in builder order, so the flip sequence is
// deterministic.
func (cp *ControlPlane) flushFlips() {
	now := cp.eng.Now()
	first, last := sim.Time(-1), sim.Time(-1)
	for i, f := range cp.fibs {
		if f.target == nil {
			continue
		}
		at := now + sim.Time(cp.flipDist[i])*cp.cfg.PerHopDelay
		if first < 0 || at < first {
			first = at
		}
		if at > last {
			last = at
		}
		if at <= now {
			f.applyFlip()
			continue
		}
		if f.flipAt == at {
			// Re-staged onto an identical schedule; the event already in
			// flight for this exact time stays authoritative (flipAt is
			// only ever set alongside a scheduled event, and a past
			// flipAt cannot equal a future `at`).
			continue
		}
		f.flipAt = at
		cp.eng.ScheduleArg(at-now, cp.flipFn, f)
	}
	if first >= 0 {
		cp.stats.FirstFlip, cp.stats.LastFlip = first, last
	}
}

// dropEntry removes a cached distance map, recycling its storage.
func (cp *ControlPlane) dropEntry(key string, e *distEntry) {
	delete(cp.distCache, key)
	clear(e.dist)
	cp.freeMaps = append(cp.freeMaps, e.dist)
}

// entryDirty reports whether any pending flip can change the entry's
// distances or any equal-cost set derived from them. For a flipped link
// u->v judged against cached distances D (computed before the batch):
//
//   - D[v] absent: the reverse BFS never reaches the link, and v is a
//     switch (host-incident flips are filtered at Invalidate), so it is
//     in no equal-cost set either — unless the link came alive and u was
//     unreachable only for want of it.
//   - Link died: it mattered exactly when it was part of the shortest-
//     path DAG, i.e. D[u] == D[v]+1 (BFS relaxation guarantees
//     D[u] <= D[v]+1 while the link was live, so anything else means a
//     strictly longer detour that no table used).
//   - Link revived: it matters when it offers u a path at least as short
//     as the cached one (D[v]+1 <= D[u], joining or improving the DAG)
//     or when u was unreachable (D[u] absent).
//
// Transitions judged clean one by one compose: removals of non-DAG edges
// cannot lengthen any shortest path, and additions that improve no
// distance individually cannot improve one jointly (a first improved
// node would need an improving edge, contradicting per-edge cleanness).
func (cp *ControlPlane) entryDirty(e *distEntry) bool {
	for _, f := range cp.pending {
		dv, okv := e.dist[f.v]
		if !okv {
			continue
		}
		du, oku := e.dist[f.u]
		if f.dead {
			if oku && du == dv+1 {
				return true
			}
		} else if !oku || dv+1 <= du {
			return true
		}
	}
	return false
}

// signature rebuilds cp.keyBuf and cp.srcBuf for destination dst: the
// source switches of its live access downlinks in builder order (the
// live-attachment signature its distance map is keyed by; the map
// depends on nothing else).
func (cp *ControlPlane) signature(dst netem.NodeID) {
	cp.keyBuf = cp.keyBuf[:0]
	cp.srcBuf = cp.srcBuf[:0]
	for _, l := range cp.in[dst] {
		if !l.RouteDead() {
			cp.srcBuf = append(cp.srcBuf, l)
			id := l.Src().ID()
			cp.keyBuf = append(cp.keyBuf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
	}
}

// grabMap recycles (or makes) an empty distance map.
func (cp *ControlPlane) grabMap() map[netem.NodeID]int32 {
	if n := len(cp.freeMaps); n > 0 {
		dist := cp.freeMaps[n-1]
		cp.freeMaps[n-1] = nil
		cp.freeMaps = cp.freeMaps[:n-1]
		return dist
	}
	return make(map[netem.NodeID]int32, len(cp.net.Switches))
}

// bfsJob is one missing distance map awaiting its breadth-first pass:
// the cache entry whose (empty) map to fill and the destination's live
// access downlinks to flood from.
type bfsJob struct {
	entry   *distEntry
	sources []*netem.Link
}

// runBFS fills every staged job's distance map — in order on the calling
// thread, or fanned across cfg.Workers goroutines when configured. Each
// job touches only its own map and read-only adjacency, so the filled
// maps are identical either way.
func (cp *ControlPlane) runBFS() {
	jobs := cp.missing
	if len(jobs) == 0 {
		return
	}
	workers := cp.cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			cp.frontier, cp.next = cp.bfsInto(j.entry.dist, j.sources, cp.frontier, cp.next)
		}
	} else {
		var idx atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var frontier, next []netem.NodeID
				for {
					i := int(idx.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					frontier, next = cp.bfsInto(jobs[i].entry.dist, jobs[i].sources, frontier, next)
				}
			}()
		}
		wg.Wait()
	}
	for i := range jobs {
		jobs[i] = bfsJob{}
	}
	cp.missing = jobs[:0]
}

// bfsInto fills dist with hop distances from every switch to a
// destination whose live access downlinks are sources (each source's src
// switch is one hop away). Expansion walks the reversed live graph and
// never tunnels through hosts. The frontier scratch is threaded through
// and returned (emptied) so serial callers keep the plane's recycled
// slices and parallel workers keep their own.
func (cp *ControlPlane) bfsInto(dist map[netem.NodeID]int32, sources []*netem.Link, frontier, next []netem.NodeID) ([]netem.NodeID, []netem.NodeID) {
	frontier = frontier[:0]
	for _, l := range sources {
		id := l.Src().ID()
		if _, seen := dist[id]; !seen {
			dist[id] = 1
			frontier = append(frontier, id)
		}
	}
	next = next[:0]
	for len(frontier) > 0 {
		next = next[:0]
		for _, v := range frontier {
			for _, l := range cp.in[v] {
				if l.RouteDead() {
					continue
				}
				u := l.Src().ID()
				if cp.isHost[u] {
					continue
				}
				if _, seen := dist[u]; !seen {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier, next = next, frontier
	}
	return frontier[:0], next[:0]
}

// reconcile computes the equal-cost set of every switch for destination
// dst (host index hostIdx), given the live hop distances, and either
// installs it in place (atomic) or stages it for the switch's scheduled
// flip (staggered). A switch whose computed set matches its healthy
// structural baseline carries no override and falls through to the
// structural fast path.
func (cp *ControlPlane) reconcile(hostIdx int, dst netem.NodeID, dist map[netem.NodeID]int32, staggered bool) {
	for i, sw := range cp.net.Switches {
		f := cp.fibs[i]
		var eq []*netem.Link
		if d, ok := dist[sw.ID()]; ok {
			for _, l := range cp.out[sw.ID()] {
				if l.RouteDead() {
					continue
				}
				to := l.Dst().ID()
				if to == dst {
					if d == 1 {
						eq = append(eq, l)
					}
					continue
				}
				if nd, ok := dist[to]; ok && nd == d-1 {
					eq = append(eq, l)
				}
			}
		}
		if staggered {
			f.stage(dst, eq, cp.healthy[i][hostIdx])
			continue
		}
		if sameLinks(eq, cp.healthy[i][hostIdx]) {
			if f.override != nil {
				delete(f.override, dst)
			}
			continue
		}
		if f.override == nil {
			f.override = make(map[netem.NodeID][]*netem.Link)
		}
		f.override[dst] = eq
	}
}

// sameLinks reports whether two equal-cost sets are identical, element
// for element. Order matters: ECMP hashes index into the slice, and both
// sides derive their order from the builder's wiring order, so a healthy
// prefix compares equal without set arithmetic.
func sameLinks(a, b []*netem.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
