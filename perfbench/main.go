// Command perfbench is the simulator's benchmark. One run measures one
// workload for a given seed and prints, as its last line, a JSON object
// with the metrics BENCHMARK.json names: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
//	bash perfbench/run.sh --workload fabric-steady --seed 3 --seconds 20 --trace 0
//
// It calls only the simulator's public entry points and measures each
// layer from outside; see README.md in this directory.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	mmptcp "repro"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 20, "how long the timed phase measures; every experiment runs at least once")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// specPath lists the workloads and the metrics the result line carries.
const specPath = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func run(name string, seed uint64, seconds float64, traced int) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", traced)
	}
	if !(seconds > 0) {
		return fmt.Errorf("--seconds must be positive, not %v", seconds)
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}

	why := ""
	for _, sw := range spec.Workloads {
		if sw.Name == w.name {
			why = sw.Why
		}
	}
	if why == "" {
		return fmt.Errorf("%s does not list workload %q", specPath, w.name)
	}
	cfgs := w.configs(seed)
	fmt.Printf("workload %s seed %d: %d experiments, GOMAXPROCS %d\nwhy: %s\n", w.name, seed, len(cfgs), runtime.GOMAXPROCS(0), why)
	fmt.Printf("config[0]: %s\n", describe(cfgs[0]))
	b := &bench{w: w, seed: seed, cfgs: cfgs, budget: time.Duration(seconds * float64(time.Second))}
	var out []metric
	want := spec.EndToEnd
	if traced == 1 {
		want = spec.PerLayer
		out, err = b.perLayer()
	} else {
		out, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	for _, m := range out {
		fmt.Printf("%-28s %-14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("failed_frac %g (%d of %d experiments)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, e := range b.errs {
		fmt.Println("FAILED:", e)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range out {
		byName[m.name] = m
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: b.failed == 0 && !b.invalid && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, s := range want {
		m, ok := byName[s.Name]
		if !ok {
			return fmt.Errorf("%s lists metric %q, which this program does not measure", specPath, s.Name)
		}
		if m.unit != s.Unit {
			return fmt.Errorf("%s gives %s the unit %q; it is measured in %q", specPath, s.Name, s.Unit, m.unit)
		}
		res.Metrics[s.Name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func describe(c mmptcp.Config) string {
	s := fmt.Sprintf("%s K=%d hosts/edge=%d proto=%s short_flows=%d rate=%g shards=%d",
		c.Topology, c.K, c.HostsPerEdge, c.Protocol, c.ShortFlows, c.ArrivalRate, c.Shards)
	if c.LongFraction != 0 {
		s += fmt.Sprintf(" long_frac=%g", c.LongFraction)
	}
	if c.Metrics.Mode != "" {
		s += fmt.Sprintf(" metrics=%s", c.Metrics.Mode)
	}
	if c.MaxSimTime > 0 {
		s += fmt.Sprintf(" max_sim=%v", c.MaxSimTime)
	}
	if c.Faults.Active() {
		s += fmt.Sprintf(" faults=%d-layer-model routing=%s", len(c.Faults.Model.Layers), c.Routing.Mode)
	}
	if c.Transport.Active() {
		s += fmt.Sprintf(" dead_rtos=%d", c.Transport.DeadRTOs)
	}
	return s
}

type metric struct {
	name  string
	value float64
	unit  string
}

// bench runs one workload for one seed and tallies its experiments.
type bench struct {
	w      workload
	seed   uint64
	cfgs   []mmptcp.Config
	budget time.Duration

	inst   *mmptcp.RunInstance // the instance workloads' reused instance
	resets []float64           // timed RunInstance.Reset calls, seconds

	attempted, failed int
	invalid           bool // a check of the benchmark's own output failed
	errs              []string
	digests           [][]uint64 // per unit, per experiment: the first pass's digests
}

// perUnit is the number of experiments one timed call runs.
func (b *bench) perUnit() int { return max(b.w.sweep, 1) }

// units is the number of timed calls one pass makes.
func (b *bench) units() int { return len(b.cfgs) / b.perUnit() }

// unitConfigs returns the configs unit i runs.
func (b *bench) unitConfigs(i int) []mmptcp.Config {
	return b.cfgs[i*b.perUnit() : (i+1)*b.perUnit()]
}

// call makes unit i's call into the simulator. A panic is returned as
// an error: a panicking experiment is a failed one.
func (b *bench) call(i int) (rs []*mmptcp.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if b.w.sweep > 0 {
		return mmptcp.RunSweep(b.unitConfigs(i), mmptcp.SweepOptions{Workers: runtime.GOMAXPROCS(0), Pool: true})
	}
	cfg := b.cfgs[i]
	t0 := time.Now()
	if err := b.inst.Reset(cfg); err != nil {
		return nil, err
	}
	b.resets = append(b.resets, time.Since(t0).Seconds())
	r, err := b.inst.Run(context.Background(), cfg)
	return []*mmptcp.Results{r}, err
}

// sample is one timed execution of a unit.
type sample struct {
	wall, cpu, alloc float64 // seconds, seconds, bytes
	span             float64 // simulated seconds, summed over the unit's experiments
	results          []*mmptcp.Results
}

// exec runs unit i once, checks every experiment it ran, and compares
// their digests with the unit's first execution.
func (b *bench) exec(i int) sample {
	a0, c0, t0 := readMetric(allocBytes), cpuSeconds(), time.Now()
	rs, err := b.call(i)
	s := sample{
		wall:    time.Since(t0).Seconds(),
		cpu:     cpuSeconds() - c0,
		alloc:   float64(readMetric(allocBytes) - a0),
		results: rs,
	}
	cfgs := b.unitConfigs(i)
	b.attempted += len(cfgs)
	if err == nil && len(rs) != len(cfgs) {
		err = fmt.Errorf("%d results for %d configs", len(rs), len(cfgs))
	}
	if err != nil {
		b.fail(len(cfgs), "unit %d: %v", i, err)
		s.results = nil
		return s
	}
	for _, r := range rs {
		s.span += r.Elapsed.Seconds()
	}
	first := b.digests[i] == nil
	for j, r := range rs {
		d := digest(r)
		if first {
			b.digests[i] = append(b.digests[i], d)
		}
		if err := b.w.check(cfgs[j], r); err != nil {
			b.fail(1, "seed %d: %v", cfgs[j].Seed, err)
		} else if d != b.digests[i][j] {
			b.fail(1, "seed %d: Results digest %016x differs from the first run's %016x", cfgs[j].Seed, d, b.digests[i][j])
		}
	}
	return s
}

func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// prepare builds the instance workloads' RunInstance, outside every
// timed call: building is what setup_s measures.
func (b *bench) prepare() error {
	b.digests = make([][]uint64, b.units())
	if b.w.sweep > 0 {
		return nil
	}
	var err error
	b.inst, err = mmptcp.NewRunInstance(b.cfgs[0])
	return err
}

// timed runs every unit once, then, while budget allows, keeps cycling
// through them as long as the next one is expected to end within it.
// It returns each unit's samples, first execution first.
func (b *bench) timed(budget time.Duration) [][]sample {
	samples := make([][]sample, b.units())
	start := time.Now()
	for i := range samples {
		samples[i] = append(samples[i], b.exec(i))
	}
	for i := 0; time.Since(start).Seconds()+samples[i][len(samples[i])-1].wall <= budget.Seconds(); i = (i + 1) % len(samples) {
		samples[i] = append(samples[i], b.exec(i))
	}
	return samples
}

// perPass estimates f for one pass over the workload: the number of
// units times the median of f over every timed execution. The median
// keeps an experiment slowed by a neighbour on the host, or by a rare
// straggling flow, from setting the figure.
func perPass(samples [][]sample, f func(sample) float64) float64 {
	return float64(len(samples)) * medianOf(samples, f)
}

// medianOf is the median of f over every timed execution.
func medianOf(samples [][]sample, f func(sample) float64) float64 {
	var xs []float64
	for _, ss := range samples {
		for _, s := range ss {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// firstPass returns the Results of every unit's first execution.
func firstPass(samples [][]sample) []*mmptcp.Results {
	var rs []*mmptcp.Results
	for _, ss := range samples {
		rs = append(rs, ss[0].results...)
	}
	return rs
}

// digestLine prints the run's combined Results digest.
func (b *bench) digestLine() {
	var all []uint64
	for _, ds := range b.digests {
		all = append(all, ds...)
	}
	h := uint64(14695981039346656037)
	for _, d := range all {
		h = (h ^ d) * 1099511628211
	}
	fmt.Printf("digest %s seed=%d %016x\n", b.w.name, b.seed, h)
}

// setupSeconds is the median process CPU time of a fresh
// NewRunInstance for the workload's first config, after warm-up builds.
func (b *bench) setupSeconds() (float64, error) {
	runtime.GC()
	return cpuMedian(3, 31, func() error {
		_, err := mmptcp.NewRunInstance(b.cfgs[0])
		return err
	})
}

func (b *bench) endToEnd() ([]metric, error) {
	setup, err := b.setupSeconds()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := b.prepare(); err != nil {
		return nil, err
	}
	runtime.GC()
	peak := startHeapPeak()
	samples := b.timed(b.budget)
	peakBytes := peak.Stop()
	b.digestLine()

	// A failed experiment has no Results; the run is then marked
	// incorrect and the metrics cover the experiments that ran.
	sim := pool(firstPass(samples))
	runs := 0
	for _, ss := range samples {
		runs += len(ss)
	}
	for i, ss := range samples {
		var walls []string
		for _, s := range ss {
			walls = append(walls, fmt.Sprintf("%.3f", s.wall))
		}
		var ev uint64
		var span mmptcp.SimTime
		for _, r := range ss[0].results {
			ev += r.Events
			span = max(span, r.Elapsed)
		}
		fmt.Printf("unit %d: wall %s s, alloc %.1f MB, %d events, simulated %v\n",
			i, strings.Join(walls, " "), ss[0].alloc/1e6, ev, span)
	}
	fmt.Printf("timed %d unit executions; short flows %d spawned, %d completed; tail = %s\n",
		runs, sim.spawned, sim.completed, sim.tailLabel)
	return []metric{
		{"wall_s", perPass(samples, func(s sample) float64 { return s.wall }), "s"},
		{"cpu_s", perPass(samples, func(s sample) float64 { return s.cpu }), "s"},
		{"cpu_per_sim_s", medianOf(samples, func(s sample) float64 { return ratio(s.cpu, s.span) }), "s/s"},
		{"setup_s", setup, "s"},
		{"alloc_mb", perPass(samples, func(s sample) float64 { return s.alloc }) / 1e6, "MB"},
		{"peak_heap_mb", float64(peakBytes) / 1e6, "MB"},
		{"short_fct_mean_ms", sim.fctMeanMs, "ms"},
		{"short_fct_p50_ms", sim.fctP50Ms, "ms"},
		{"short_fct_tail_ms", sim.fctTailMs, "ms"},
		{"short_rto_frac", sim.rtoFrac, "ratio"},
		{"deadline_miss_frac", sim.missFrac, "ratio"},
		{"long_goodput_mbps", sim.goodputMbps, "Mb/s"},
	}, nil
}

func (b *bench) perLayer() ([]metric, error) {
	buildS, err := cpuMedian(1, 11, func() error {
		_, err := mmptcp.NewNetwork(mmptcp.NewEngine(), b.cfgs[0])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("NewNetwork: %w", err)
	}

	// One untraced pass: the baseline for the profile's overhead, and
	// the source of the counters, GC cycles and core utilisation.
	if err := b.prepare(); err != nil {
		return nil, err
	}
	runtime.GC()
	gc0, c0, t0 := readMetric(gcCycles), cpuSeconds(), time.Now()
	base := b.timed(0)
	wall, cpu, gcs := time.Since(t0).Seconds(), cpuSeconds()-c0, readMetric(gcCycles)-gc0
	rs := firstPass(base)

	runtime.GC()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t1 := time.Now()
	b.timed(0)
	tracedWall := time.Since(t1).Seconds()
	pprof.StopCPUProfile()
	b.digestLine()
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		b.invalid = true
		b.errs = append(b.errs, fmt.Sprintf("cpu shares sum to %v, not 1", sum))
	}

	if b.w.sweep > 0 {
		if err := b.timeResets(); err != nil {
			return nil, err
		}
	}
	c := countResults(rs)
	out := []metric{
		{"sim.events", c.events, "count"},
		{"sim.ns_per_event", ratio(wall*1e9, c.events), "ns"},
		{"netem.tx_packets", c.tx, "count"},
		{"netem.drops", c.drops, "count"},
		{"tcp.segments_sent", c.segs, "count"},
		{"tcp.retx_ratio", ratio(c.retx, c.segs), "ratio"},
		{"tcp.timeouts", c.timeouts, "count"},
		{"mptcp.redials", c.redials, "count"},
		{"mptcp.redial_recovered_ratio", ratio(c.recovered, c.redials), "ratio"},
		{"core.phase_switches", c.switches, "count"},
		{"core.phase_deferrals", c.deferrals, "count"},
		{"routing.recomputes", c.recomputes, "count"},
		{"routing.bfs_runs", c.bfs, "count"},
		{"routing.dst_skip_ratio", ratio(c.dstSkipped, c.dstSkipped+c.dstRecomputed), "ratio"},
		{"routing.flips", c.flips, "count"},
		{"routing.stale_lookups", c.stale, "count"},
		{"faults.events", c.faultEvents, "count"},
		{"topology.build_s", buildS, "s"},
		{"shard.barriers", c.barriers, "count"},
		{"shard.elided_ratio", ratio(c.elided, c.windowSlots), "ratio"},
		{"sweep.reset_s", median(b.resets), "s"},
		{"runtime.gc_cycles", float64(gcs), "count"},
		{"profile.overhead_ratio", tracedWall/wall - 1, "ratio"},
	}
	shardUtil, sweepUtil := 0.0, 0.0
	switch {
	case b.w.sweep > 0:
		sweepUtil = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	case b.cfgs[0].Shards > 1:
		shardUtil = cpu / (wall * float64(b.cfgs[0].Shards))
	}
	out = append(out, metric{"shard.core_utilisation", shardUtil, "ratio"}, metric{"sweep.core_utilisation", sweepUtil, "ratio"})
	vsSeq, err := b.shardVsSeq(base)
	if err != nil {
		return nil, err
	}
	out = append(out, vsSeq...)
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_share", shares[l+".cpu_share"], "ratio"})
	}
	return append(out, metric{gcShare, shares[gcShare], "ratio"}, metric{otherShare, shares[otherShare], "ratio"}), nil
}

// timeResets measures RunInstance.Reset for a sweep workload, whose
// resets happen inside RunSweep: three of its configs run serially on
// one instance, each Reset timed after a run.
func (b *bench) timeResets() error {
	inst, err := mmptcp.NewRunInstance(b.cfgs[0])
	if err != nil {
		return err
	}
	for k := 0; k < 3 && k+1 < len(b.cfgs); k++ {
		if _, err := inst.Run(context.Background(), b.cfgs[k]); err != nil {
			return err
		}
		t0 := time.Now()
		if err := inst.Reset(b.cfgs[k+1]); err != nil {
			return err
		}
		b.resets = append(b.resets, time.Since(t0).Seconds())
	}
	return nil
}

// shardVsSeq runs a sharded workload's first two experiments again on
// the sequential engine (Shards = 0) and compares per event with the
// sharded baseline pass. Both are 0 on workloads without shards.
func (b *bench) shardVsSeq(base [][]sample) ([]metric, error) {
	nsRatio, evRatio := 0.0, 0.0
	if b.cfgs[0].Shards > 1 && b.w.sweep == 0 {
		n := min(2, len(b.cfgs))
		seqCfg := b.cfgs[0]
		seqCfg.Shards = 0
		inst, err := mmptcp.NewRunInstance(seqCfg)
		if err != nil {
			return nil, err
		}
		var shWall, shEv, seqWall, seqEv float64
		for i := 0; i < n && base[i][0].results != nil; i++ {
			cfg := b.cfgs[i]
			cfg.Shards = 0
			if err := inst.Reset(cfg); err != nil {
				return nil, err
			}
			t0 := time.Now()
			r, err := inst.Run(context.Background(), cfg)
			if err != nil {
				return nil, fmt.Errorf("sequential twin: %w", err)
			}
			seqWall += time.Since(t0).Seconds()
			seqEv += float64(r.Events)
			shWall += base[i][0].wall
			shEv += float64(base[i][0].results[0].Events)
		}
		if shEv > 0 && seqEv > 0 {
			nsRatio = (shWall / shEv) / (seqWall / seqEv)
			evRatio = shEv / seqEv
		}
	}
	return []metric{{"shard.ns_per_event_vs_seq", nsRatio, "ratio"}, {"shard.events_vs_seq", evRatio, "ratio"}}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counts are per-layer work counters summed over a pass's Results.
type counts struct {
	events, tx, drops                          float64
	segs, retx, timeouts                       float64
	redials, recovered, switches, deferrals    float64
	recomputes, bfs, dstSkipped, dstRecomputed float64
	flips, stale, faultEvents                  float64
	barriers, elided, windowSlots              float64
}

func countResults(rs []*mmptcp.Results) counts {
	var c counts
	for _, r := range rs {
		c.events += float64(r.Events)
		for _, l := range r.Layers {
			c.tx += float64(l.TxPackets)
			c.drops += float64(l.Drops + l.RandomDrops + l.Blackholed)
		}
		c.drops += float64(r.NoRouteDrops + r.HopDrops + r.LoopDrops + r.CrashDrops)
		// Streaming runs keep no short-flow records: their TCP counters
		// cover the long flows only.
		for _, fs := range [][]mmptcp.FlowRecord{r.ShortFlows, r.LongFlows} {
			for _, f := range fs {
				c.segs += float64(f.SegmentsSent)
				c.retx += float64(f.Retransmissions)
				c.timeouts += float64(f.Timeouts)
			}
		}
		c.redials += float64(r.Redials)
		c.recovered += float64(r.RedialRecovered)
		c.switches += float64(r.PhaseSwitches)
		c.deferrals += float64(r.PhaseDeferrals)
		c.recomputes += float64(r.Routing.Recomputes)
		c.bfs += float64(r.Routing.BFSRuns)
		c.dstSkipped += float64(r.Routing.DstSkipped)
		c.dstRecomputed += float64(r.Routing.DstRecomputed)
		c.flips += float64(r.Routing.Flips)
		c.stale += float64(r.Routing.StaleLookups)
		c.faultEvents += float64(r.FaultEvents)
		c.barriers += float64(r.Shard.Barriers)
		c.elided += float64(r.Shard.ElidedWakeups)
		c.windowSlots += float64(r.Shard.Windows) * float64(r.Shard.Shards)
	}
	return c
}
