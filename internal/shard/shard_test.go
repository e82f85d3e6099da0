package shard

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestCrossShardDeliveryOrder pins the cross-shard ordering contract:
// same-nanosecond deliveries commit after every local event at that
// instant — even local events scheduled after the commit — and among
// themselves by (source shard, send order). The order must not depend on
// which barrier flushed a delivery, so the same sends are committed once
// in a single flush and once split across two.
func TestCrossShardDeliveryOrder(t *testing.T) {
	const at = 5 * sim.Millisecond
	want := []string{"early", "local-a", "local-b", "s0-0", "s0-1", "s1-0", "s1-1"}
	for _, split := range []bool{false, true} {
		dst := sim.NewEngine()
		ob0 := &outbox{dst: dst, src: 0}
		ob1 := &outbox{dst: dst, src: 1}
		f := &Fabric{outboxes: []*outbox{ob0, ob1}}
		var got []string
		rec := func(a any) { got = append(got, a.(string)) }

		dst.AtArg(at, rec, "local-a")
		ob1.AtArg(at, rec, "s1-0")
		if split {
			f.flushOutboxes() // shard 1's first send commits a barrier early
		}
		ob0.AtArg(at, rec, "s0-0")
		ob1.AtArg(at, rec, "s1-1")
		ob0.AtArg(at, rec, "s0-1")
		ob1.AtArg(at-1, rec, "early") // sent last, arrives first
		dst.AtArg(at, rec, "local-b")
		f.flushOutboxes()
		for _, ob := range f.outboxes {
			if len(ob.pending) != 0 {
				t.Fatalf("split=%v: outbox of shard %d kept %d deliveries after the flush", split, ob.src, len(ob.pending))
			}
		}
		dst.Run()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("split=%v: firing order %v, want %v", split, got, want)
		}
	}
}

// TestOutboxSendCounterExhausted: the per-outbox send counter owns the
// low bits of the delivery key; the last representable send is keyed
// normally, and the one after it must panic rather than wrap into the
// source-shard bits.
func TestOutboxSendCounterExhausted(t *testing.T) {
	ob := &outbox{dst: sim.NewEngine(), src: 3, sent: deliveryKeyMax - 1}
	nop := func(any) {}
	ob.AtArg(0, nop, nil)
	if got, want := ob.pending[0].key, deliveryLane|3<<deliverySrcSh|(deliveryKeyMax-1); got != want {
		t.Fatalf("last key = %#x, want %#x", got, want)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("send past the key space did not panic")
		}
	}()
	ob.AtArg(0, nop, nil)
}

// lineNet builds host0 - switch0 - switch1 - host1 with the given
// propagation delay on the switch-to-switch cable. Partitioned into two
// shards, that cable is the only boundary.
func lineNet(boundary sim.Time) *topology.Network {
	eng := sim.NewEngine()
	n := &topology.Network{Eng: eng, Kind: "line"}
	h0, h1 := netem.NewHost(eng, 0), netem.NewHost(eng, 1)
	s0, s1 := netem.NewSwitch(eng, 2, 0), netem.NewSwitch(eng, 3, 0)
	link := func(a, b netem.Node, prop sim.Time) *netem.Link {
		l := netem.NewLink(eng, a, b, 1e9, prop, 8, netem.LayerHost)
		n.Links = append(n.Links, l)
		return l
	}
	h0.AttachUplink(link(h0, s0, sim.Microsecond))
	link(s0, h0, sim.Microsecond)
	h1.AttachUplink(link(h1, s1, sim.Microsecond))
	link(s1, h1, sim.Microsecond)
	link(s0, s1, boundary)
	link(s1, s0, boundary)
	n.Hosts = []*netem.Host{h0, h1}
	n.Switches = []*netem.Switch{s0, s1}
	return n
}

// TestBuildLookahead: the lookahead is the boundary cable's delay, and a
// zero-delay boundary — which would leave windows of zero width and
// deadlock the coordinator — is refused at build time.
func TestBuildLookahead(t *testing.T) {
	n := lineNet(3 * sim.Microsecond)
	f, err := Build(n.Eng, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.Lookahead(), 3*sim.Microsecond; got != want {
		t.Errorf("Lookahead = %v, want %v", got, want)
	}
	if f.HostShard(0) != 0 || f.HostShard(1) != 1 {
		t.Errorf("hosts on shards %d and %d, want 0 and 1", f.HostShard(0), f.HostShard(1))
	}

	n = lineNet(0)
	if _, err := Build(n.Eng, n, 2); err == nil || !strings.Contains(err.Error(), "zero-delay") {
		t.Errorf("zero-delay boundary: err = %v, want a zero-delay refusal", err)
	}
}

// TestFlushDeferredStop: completions replay in (time, shard) order, and
// one that stops the run discards every later completion and records
// its own firing time as the stop time, as the sequential engine's Stop
// would.
func TestFlushDeferredStop(t *testing.T) {
	f := &Fabric{shards: 2, deferred: make([][]deferredCall, 2), deferIdx: make([]int, 2)}
	var got []string
	call := func(name string) func(sim.Time) {
		return func(sim.Time) { got = append(got, name) }
	}
	stop := func(sim.Time) {
		got = append(got, "stop")
		f.Stop()
	}
	f.deferred[0] = []deferredCall{{at: 1, fn: call("s0@1")}, {at: 2, fn: call("s0@2")}, {at: 4, fn: call("s0@4")}}
	f.deferred[1] = []deferredCall{{at: 2, fn: call("s1@2")}, {at: 3, fn: stop}, {at: 5, fn: call("s1@5")}}
	f.flushDeferred()
	if want := []string{"s0@1", "s0@2", "s1@2", "stop"}; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	if !f.stopped || f.stopTime != 3 {
		t.Errorf("stopped=%v stopTime=%v, want true at 3", f.stopped, f.stopTime)
	}
	for s, buf := range f.deferred {
		if len(buf) != 0 {
			t.Errorf("shard %d kept %d deferred calls", s, len(buf))
		}
	}
}
