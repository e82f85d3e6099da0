package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator's modules, in report order. A CPU sample
// belongs to the layer of its innermost frame from the repro module;
// runtime frames below that frame (allocation, map access, GC assists)
// count to it too.
var layers = []string{"sim", "netem", "tcp", "mptcp", "core", "routing", "faults",
	"topology", "shard", "sweep", "metrics", "mmptcp"}

// foldInto maps the repro packages that are not layers of their own onto
// the layer that owns their work.
var foldInto = map[string]string{
	"dctcp":    "tcp",     // a congestion-control variant of the TCP sender
	"workload": "mmptcp",  // the run harness's traffic generator
	"prof":     "mmptcp",  // profiling flags of the command-line tools
	"trace":    "metrics", // the flight recorder, off in every workload
}

// Shares not owned by a layer.
const (
	gcShare    = "runtime.gc_cpu_share"   // GC background workers
	otherShare = "runtime.other_share"    // no repro frame and not GC
	gcWorker   = "runtime.gcBgMarkWorker" // root frame of a GC worker
	reproRoot  = "repro"                  // the simulator's module path
	reproInner = "repro/internal/"        // its internal packages
)

// frameLayer returns the layer that owns a function, or "" when the
// function is outside the repro module.
func frameLayer(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // generic type arguments
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == reproRoot:
		return "mmptcp"
	case strings.HasPrefix(pkg, reproInner):
		name := strings.TrimPrefix(pkg, reproInner)
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if to, ok := foldInto[name]; ok {
			return to
		}
		return name
	}
	return ""
}

// foldProfile reads a gzipped pprof CPU profile and returns each
// layer's share of the samples, plus gcShare and otherShare. The shares
// sum to 1.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		owner := ""
		gc := false
	stack:
		for _, loc := range s.locs { // leaf first
			for _, fid := range p.locLines[loc] { // innermost inlined call first
				fn := p.strings[p.funcNames[fid]]
				if l := frameLayer(fn); l != "" {
					owner = l
					break stack
				}
				gc = gc || fn == gcWorker
			}
		}
		switch {
		case owner != "":
		case gc:
			owner = gcShare
		default:
			owner = otherShare
		}
		counts[owner] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	shares := map[string]float64{gcShare: 0, otherShare: 0}
	for _, l := range layers {
		shares[l+".cpu_share"] = 0
	}
	for owner, n := range counts {
		key := owner
		if owner != gcShare && owner != otherShare {
			key = owner + ".cpu_share"
			if _, ok := shares[key]; !ok {
				return nil, fmt.Errorf("profile: repro package %q has no layer", owner)
			}
		}
		shares[key] = float64(n) / float64(total)
	}
	return shares, nil
}

// profile is the part of a pprof profile the fold reads.
type profile struct {
	samples   []profSample
	locLines  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs  []uint64 // location ids, leaf first
	count int64    // first sample value: the number of samples
}

// decodeProfile decodes the protobuf encoding of profile.proto
// (github.com/google/pprof), reading only samples, locations, functions
// and the string table.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			first := true
			err := eachField(msg, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return eachVarint(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, sub, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	for _, s := range p.samples {
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				if _, ok := p.funcNames[fid]; !ok {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", loc, fid)
				}
			}
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n == 0 || l > uint64(len(b)-n) {
				return errors.New("profile: bad length")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated varint field in either encoding: one
// value (v, msg == nil) or a packed run of values in msg.
func eachVarint(v uint64, msg []byte, fn func(uint64)) error {
	if msg == nil {
		fn(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := uvarint(msg)
		if n == 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		msg = msg[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint; n is 0 on malformed input.
func uvarint(b []byte) (x uint64, n int) {
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
