package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb builds protobuf messages for a hand-made profile.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b pb) uint(field int, x uint64) pb { return b.varint(uint64(field) << 3).varint(x) }

func (b pb) bytes(field int, msg []byte) pb {
	return append(b.varint(uint64(field)<<3|2).varint(uint64(len(msg))), msg...)
}

func (b pb) packed(field int, xs ...uint64) pb {
	var body pb
	for _, x := range xs {
		body = body.varint(x)
	}
	return b.bytes(field, body)
}

// handProfile encodes a CPU profile with one function per name, one
// location per stack entry, and the given samples; each stack lists
// locations leaf first, each location its inlined functions innermost
// first. Odd samples use the unpacked encoding of repeated fields.
func handProfile(t *testing.T, samples []struct {
	stack [][]string
	count uint64
}) []byte {
	t.Helper()
	strs := []string{""}
	funcID := map[string]uint64{}
	var p pb
	p = p.bytes(1, pb{}.uint(1, 1).uint(2, 2)) // sample_type: samples/count
	p = p.bytes(1, pb{}.uint(1, 3).uint(2, 4)) // sample_type: cpu/nanoseconds
	strs = append(strs, "samples", "count", "cpu", "nanoseconds")
	var locID uint64
	for i, s := range samples {
		var locs []uint64
		for _, frames := range s.stack {
			var loc pb
			locID++
			loc = loc.uint(1, locID)
			for _, fn := range frames {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					strs = append(strs, fn)
					p = p.bytes(5, pb{}.uint(1, id).uint(2, uint64(len(strs)-1)))
				}
				loc = loc.bytes(4, pb{}.uint(1, id).uint(2, 42))
			}
			p = p.bytes(4, loc)
			locs = append(locs, locID)
		}
		var smp pb
		if i%2 == 0 {
			smp = smp.packed(1, locs...).packed(2, s.count, s.count*10_000_000)
		} else {
			for _, l := range locs {
				smp = smp.uint(1, l)
			}
			smp = smp.uint(2, s.count).uint(2, s.count*10_000_000)
		}
		p = p.bytes(2, smp)
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldInnermostLayer(t *testing.T) {
	type smp = struct {
		stack [][]string
		count uint64
	}
	gz := handProfile(t, []smp{
		// Allocation below a netem frame counts to netem.
		{[][]string{{"runtime.mallocgc"}, {"repro/internal/netem.(*Link).Send"}, {"repro/internal/sim.(*Engine).Run"}}, 3},
		// The innermost inlined function decides: sim inlined into tcp.
		{[][]string{{"repro/internal/sim.(*Engine).At", "repro/internal/tcp.(*Sender).arm"}, {"repro.runWith"}}, 2},
		// Generic instantiations, the root package, folded packages.
		{[][]string{{"repro/internal/sweep.Run[go.shape.*uint8]"}, {"repro.RunSweep"}}, 1},
		{[][]string{{"repro.(*RunInstance).Reset"}}, 1},
		{[][]string{{"repro/internal/dctcp.(*Alpha).Update"}, {"repro/internal/tcp.(*Sender).onAck"}}, 1},
		// A GC background worker with no repro frame.
		{[][]string{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}}, 1},
		// Neither: the benchmark's own frames and the scheduler.
		{[][]string{{"main.main"}, {"runtime.main"}}, 1},
	})
	shares, err := foldProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"netem.cpu_share":  3. / 10,
		"sim.cpu_share":    2. / 10,
		"sweep.cpu_share":  1. / 10,
		"mmptcp.cpu_share": 1. / 10,
		"tcp.cpu_share":    1. / 10,
		gcShare:            1. / 10,
		otherShare:         1. / 10,
	}
	sum := 0.0
	for k, v := range shares {
		sum += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, v, want[k])
		}
	}
	if len(shares) != len(layers)+2 {
		t.Errorf("%d shares, want one per layer plus GC and other (%d)", len(shares), len(layers)+2)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestFoldRejectsBadInput(t *testing.T) {
	if _, err := foldProfile([]byte("not gzip")); err == nil {
		t.Error("accepted a non-gzip profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2, length 5, one byte of data
	zw.Close()
	if _, err := foldProfile(buf.Bytes()); err == nil {
		t.Error("accepted a truncated message")
	}
	if _, err := foldProfile(handProfile(t, nil)); err == nil {
		t.Error("accepted a profile without samples")
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/routing.(*ControlPlane).recompute.func1": "routing",
		"repro/internal/trace.(*Recorder).Record":                "metrics",
		"repro/internal/workload.(*PoissonShortFlows).spawn":     "mmptcp",
		"repro.Run":             "mmptcp",
		"reprobench.Run":        "",
		"runtime.mallocgc":      "",
		"main.(*bench).exec":    "",
		"example.com/repro.Run": "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
