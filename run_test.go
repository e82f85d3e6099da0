package mmptcp

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// tiny returns a fast-running config for integration tests.
func tiny(proto Protocol, flows int) Config {
	cfg := SmallConfig(proto, flows)
	cfg.Seed = 1
	return cfg
}

func TestRunTCPSmoke(t *testing.T) {
	res, err := Run(tiny(ProtoTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawned != 100 {
		t.Errorf("spawned = %d", res.Spawned)
	}
	if res.ShortSummary.Count+res.ShortSummary.Incomplete != 100 {
		t.Errorf("short accounting: %+v", res.ShortSummary)
	}
	if res.ShortSummary.Count < 95 {
		t.Errorf("only %d/100 short flows completed", res.ShortSummary.Count)
	}
	if res.ShortSummary.MeanMs <= 0 {
		t.Error("zero mean FCT")
	}
	if len(res.LongFlows) == 0 {
		t.Fatal("no long flows")
	}
	if res.LongThroughputMbps <= 0 {
		t.Error("zero long-flow throughput")
	}
	if res.Events == 0 || res.Elapsed == 0 {
		t.Error("no events processed")
	}
	// Every layer of a FatTree must appear in the report.
	for _, layer := range []netem.Layer{netem.LayerHost, netem.LayerEdge, netem.LayerAgg} {
		if _, ok := res.Layers[layer]; !ok {
			t.Errorf("layer %v missing from report", layer)
		}
	}
}

func TestRunRecordsInSpawnOrder(t *testing.T) {
	res, err := Run(tiny(ProtoMMPTCP, 60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShortFlows) != 60 {
		t.Fatalf("records = %d", len(res.ShortFlows))
	}
	var last sim.Time
	for i, r := range res.ShortFlows {
		if r.Start < last {
			t.Fatalf("record %d out of spawn order", i)
		}
		last = r.Start
		if r.Class != metrics.ShortFlow {
			t.Fatalf("record %d has class %v", i, r.Class)
		}
		if r.Size != 70_000 {
			t.Fatalf("record %d size %d", i, r.Size)
		}
		if r.Completed && r.End < r.Start {
			t.Fatalf("record %d negative FCT", i)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := Run(tiny(ProtoMPTCP, 50))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tiny(ProtoMPTCP, 50))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.Elapsed != b.Elapsed {
		t.Fatalf("same seed diverged: events %d vs %d, elapsed %v vs %v",
			a.Events, b.Events, a.Elapsed, b.Elapsed)
	}
	for i := range a.ShortFlows {
		if a.ShortFlows[i].End != b.ShortFlows[i].End {
			t.Fatalf("flow %d FCT differs between identical runs", i)
		}
	}
	c, err := Run(Config{
		Topology: TopoFatTree, K: 4, HostsPerEdge: 8,
		Protocol: ProtoMPTCP, ShortFlows: 50, ArrivalRate: 2.5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Events == a.Events {
		t.Error("different seeds produced identical event counts (suspicious)")
	}
}

// TestHeadlineShape asserts the paper's §3 comparison at reduced scale:
// MMPTCP completes short flows with a much smaller standard deviation
// and far fewer RTO-affected connections than MPTCP with 8 subflows,
// without sacrificing long-flow throughput.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline comparison is slow")
	}
	mp, err := Run(tiny(ProtoMPTCP, 300))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := Run(tiny(ProtoMMPTCP, 300))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MPTCP : %v", mp.ShortSummary)
	t.Logf("MMPTCP: %v", mm.ShortSummary)

	if mm.ShortSummary.StdMs >= mp.ShortSummary.StdMs {
		t.Errorf("MMPTCP std %.1f >= MPTCP std %.1f; paper expects a collapse",
			mm.ShortSummary.StdMs, mp.ShortSummary.StdMs)
	}
	if mm.ShortSummary.WithRTO*2 >= mp.ShortSummary.WithRTO {
		t.Errorf("MMPTCP RTO flows %d vs MPTCP %d; want far fewer",
			mm.ShortSummary.WithRTO, mp.ShortSummary.WithRTO)
	}
	if mm.ShortSummary.MeanMs >= mp.ShortSummary.MeanMs {
		t.Errorf("MMPTCP mean %.1f >= MPTCP mean %.1f; paper expects an improvement",
			mm.ShortSummary.MeanMs, mp.ShortSummary.MeanMs)
	}
	// Long-flow throughput within 15% of each other (§3: "the same").
	ratio := mm.LongThroughputMbps / mp.LongThroughputMbps
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("long-flow throughput ratio MMPTCP/MPTCP = %.2f; want about 1", ratio)
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Config{
		{}, // no protocol
		{Protocol: "bogus", ShortFlows: 1, ArrivalRate: 1},
		{Protocol: ProtoTCP},                // no flows
		{Protocol: ProtoTCP, ShortFlows: 5}, // no rate
		{Protocol: ProtoTCP, ShortFlows: 5, ArrivalRate: 1, LongFraction: 1.5},
		{Protocol: ProtoTCP, ShortFlows: 5, ArrivalRate: 1, Topology: "ring"},
	}
	// Hotspot knobs: a host outside the built fabric (64 hosts here)
	// and a fraction that is NaN or outside [0,1] must fail before any
	// event runs, not panic mid-run.
	hot := func(frac float64, host int) Config {
		cfg := tiny(ProtoTCP, 10)
		cfg.HotspotFraction = frac
		cfg.HotspotHost = host
		return cfg
	}
	cases = append(cases,
		hot(0.5, 9999),
		hot(0.5, 64),
		hot(0.5, -3),
		hot(math.NaN(), 0),
		hot(-0.1, 0),
		hot(1.5, 0),
	)
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: no error for invalid config", i)
		}
	}
	// Structural, workload and control values the builders would panic
	// on or a run would silently accept: Run, NewRunInstance and
	// NewNetwork must all fail validation with an error instead.
	rejected := []struct {
		name string
		edit func(*Config)
	}{
		{"odd K", func(c *Config) { c.K = 3 }},
		{"negative K", func(c *Config) { c.K = -2 }},
		{"vl2 odd K", func(c *Config) { c.Topology, c.K = TopoVL2, 3 }},
		{"multihomed K=2", func(c *Config) { c.Topology, c.K = TopoMultiHomed, 2 }},
		{"dumbbell without hosts", func(c *Config) { c.Topology, c.K, c.HostsPerEdge = TopoDumbbell, 1, 1 }},
		{"dumbbell negative bottleneck", func(c *Config) { c.Topology, c.BottleneckBps = TopoDumbbell, -1 }},
		{"negative HostsPerEdge", func(c *Config) { c.HostsPerEdge = -1 }},
		{"negative LinkRateBps", func(c *Config) { c.LinkRateBps = -1 }},
		{"negative QueueLimit", func(c *Config) { c.QueueLimit = -1 }},
		{"negative LinkDelay", func(c *Config) { c.LinkDelay = -1 }},
		{"negative ShortFlowSize", func(c *Config) { c.ShortFlowSize = -1 }},
		{"negative MaxSimTime", func(c *Config) { c.MaxSimTime = -1 }},
		{"negative Subflows", func(c *Config) { c.Subflows = -1 }},
		{"negative Warmup", func(c *Config) { c.Warmup = -1 }},
		{"negative Deadline", func(c *Config) { c.Deadline = -1 }},
	}
	for _, tc := range rejected {
		cfg := SmallConfig(ProtoMMPTCP, 5)
		tc.edit(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run returned no error", tc.name)
		}
		if _, err := NewRunInstance(cfg); err == nil {
			t.Errorf("%s: NewRunInstance returned no error", tc.name)
		}
		if _, err := NewNetwork(sim.NewEngine(), cfg); err == nil {
			t.Errorf("%s: NewNetwork returned no error", tc.name)
		}
	}
}

func TestRunNoLongFlows(t *testing.T) {
	cfg := tiny(ProtoTCP, 50)
	cfg.LongFraction = -1 // disable background traffic
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LongFlows) != 0 {
		t.Fatalf("long flows = %d, want 0", len(res.LongFlows))
	}
	// Without background traffic, short flows finish fast and cleanly.
	if res.ShortSummary.Count != 50 {
		t.Errorf("completed = %d", res.ShortSummary.Count)
	}
	if res.ShortSummary.WithRTO > 2 {
		t.Errorf("unloaded network produced %d RTO flows", res.ShortSummary.WithRTO)
	}
}

func TestRunMMPTCPPhaseSwitchesOnLongFlows(t *testing.T) {
	res, err := Run(tiny(ProtoMMPTCP, 30))
	if err != nil {
		t.Fatal(err)
	}
	// Every unbounded long flow must have switched to the MPTCP phase.
	if res.PhaseSwitches != len(res.LongFlows) {
		t.Errorf("phase switches = %d, long flows = %d", res.PhaseSwitches, len(res.LongFlows))
	}
}

func TestRunHotspot(t *testing.T) {
	cfg := tiny(ProtoMMPTCP, 80)
	cfg.HotspotFraction = 0.5
	cfg.HotspotHost = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, r := range res.ShortFlows {
		if r.Dst == 3 {
			hot++
		}
	}
	if hot < len(res.ShortFlows)/4 {
		t.Errorf("only %d/%d flows hit the hotspot", hot, len(res.ShortFlows))
	}
}

func TestRunDumbbellTopology(t *testing.T) {
	cfg := Config{
		Topology:     TopoDumbbell,
		K:            2,
		HostsPerEdge: 4, // 4 hosts per side
		Protocol:     ProtoTCP,
		ShortFlows:   30,
		ArrivalRate:  5,
		Seed:         3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count == 0 {
		t.Error("no completions on dumbbell")
	}
}

func TestRunMultiHomedTopology(t *testing.T) {
	cfg := Config{
		Topology:     TopoMultiHomed,
		K:            4,
		HostsPerEdge: 2,
		Protocol:     ProtoMMPTCP,
		ShortFlows:   30,
		ArrivalRate:  5,
		Seed:         4,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count == 0 {
		t.Error("no completions on multi-homed FatTree")
	}
}

func TestDialSingleFlow(t *testing.T) {
	eng := sim.NewEngine()
	ft := topology.NewFatTree(eng, topology.FatTreeConfig{K: 4, Link: topology.DefaultLinkConfig()})
	cfg := Config{Protocol: ProtoMMPTCP}
	conn, err := Dial(eng, &ft.Network, cfg, DialConfig{
		FlowID: 1, Src: 0, Dst: 15, Size: 70_000, RNG: sim.NewRNG(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := MMPTCPConn(conn)
	if !ok {
		t.Fatal("MMPTCPConn failed on an MMPTCP connection")
	}
	conn.Start()
	eng.Run()
	if !conn.Receiver().Complete() {
		t.Fatal("single dialed flow incomplete")
	}
	if mc.Switched() {
		t.Error("70KB flow switched phases")
	}
	if _, ok := MMPTCPConn(&tcpConn{}); ok {
		t.Error("MMPTCPConn succeeded on a TCP connection")
	}
}

func TestRunDCTCPBaseline(t *testing.T) {
	res, err := Run(tiny(ProtoDCTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count < 95 {
		t.Fatalf("only %d/100 DCTCP short flows completed", res.ShortSummary.Count)
	}
	if res.LongThroughputMbps <= 0 {
		t.Error("no long-flow throughput")
	}
	// ECN keeps the fabric's time-averaged queues near the marking
	// threshold, well below what drop-tail Reno sustains.
	tcpRes, err := Run(tiny(ProtoTCP, 100))
	if err != nil {
		t.Fatal(err)
	}
	dq := res.Layers[netem.LayerEdge].AvgQueue
	tq := tcpRes.Layers[netem.LayerEdge].AvgQueue
	if dq >= tq {
		t.Errorf("DCTCP edge avg queue %.2f >= TCP %.2f; ECN not effective", dq, tq)
	}
}

func TestRunVL2Topology(t *testing.T) {
	cfg := Config{
		Topology:     TopoVL2,
		K:            4, // DA = DI = 4, 8 ToRs
		HostsPerEdge: 4, // hosts per ToR -> 32 hosts
		Protocol:     ProtoMMPTCP,
		ShortFlows:   40,
		ArrivalRate:  5,
		Seed:         6,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count < 38 {
		t.Errorf("completed = %d/40 on VL2", res.ShortSummary.Count)
	}
}

func TestRunAdaptiveThresholdMode(t *testing.T) {
	cfg := tiny(ProtoMMPTCP, 80)
	cfg.PSThreshold = core.ThresholdAdaptive
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShortSummary.Count < 75 {
		t.Errorf("completed = %d/80 with adaptive threshold", res.ShortSummary.Count)
	}
}

func TestRunDeadlineMissRate(t *testing.T) {
	res, err := Run(tiny(ProtoMPTCP, 120))
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMissRate <= 0 || res.DeadlineMissRate >= 1 {
		t.Errorf("deadline miss rate = %v, want in (0,1) under load", res.DeadlineMissRate)
	}
	// Unloaded network: nothing misses a 200ms deadline.
	cfg := tiny(ProtoTCP, 50)
	cfg.LongFraction = -1
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.DeadlineMissRate != 0 {
		t.Errorf("unloaded miss rate = %v, want 0", clean.DeadlineMissRate)
	}
}

func TestRunWithSACK(t *testing.T) {
	cfg := tiny(ProtoMPTCP, 150)
	cfg.SACK = true
	sack, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(tiny(ProtoMPTCP, 150))
	if err != nil {
		t.Fatal(err)
	}
	if sack.ShortSummary.Count < 145 {
		t.Fatalf("only %d/150 completed with SACK", sack.ShortSummary.Count)
	}
	t.Logf("MPTCP  newreno: %v", plain.ShortSummary)
	t.Logf("MPTCP  sack   : %v", sack.ShortSummary)
	// The paper's diagnosis must survive SACK: tiny subflow windows
	// cannot generate feedback at all, so RTO-bound flows remain.
	if sack.ShortSummary.WithRTO == 0 {
		t.Error("SACK eliminated all RTOs; the tiny-window failure mode should persist")
	}
}
