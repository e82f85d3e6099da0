package mmptcp

// Benchmarks regenerating every figure and numerical claim in the
// paper's evaluation, at bench-friendly scale (a 4:1 over-subscribed
// K=4 FatTree, hundreds of short flows). The custom metrics reported
// via b.ReportMetric are the quantities the paper plots:
//
//	mean-fct-ms / std-fct-ms  — Figure 1(a) and the §3 statistics
//	rto-flows                 — Figure 1(a)'s error-bar driver
//	long-tput-mbps            — §3 "same average throughput"
//	loss-agg-core-pct         — §3 loss at the core layer
//
// go test -bench=. -benchmem prints them next to the usual ns/op. Run
// cmd/figures -scale medium|paper for full-scale numbers.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/topology"
)

// benchConfig is the common reduced-scale setup.
func benchConfig(proto Protocol, flows int) Config {
	cfg := SmallConfig(proto, flows)
	cfg.Seed = 1
	return cfg
}

func reportShort(b *testing.B, res *Results) {
	b.ReportMetric(res.ShortSummary.MeanMs, "mean-fct-ms")
	b.ReportMetric(res.ShortSummary.StdMs, "std-fct-ms")
	b.ReportMetric(float64(res.ShortSummary.WithRTO), "rto-flows")
	b.ReportMetric(res.LongThroughputMbps, "long-tput-mbps")
	b.ReportMetric(res.Layers[netem.LayerAgg].LossRate*100, "loss-agg-core-pct")
	b.ReportMetric(res.DeadlineMissRate*100, "deadline-miss-pct")
}

// BenchmarkFig1aMPTCPSubflowSweep regenerates Figure 1(a): MPTCP
// short-flow FCT versus subflow count. The paper's claim: mean and
// standard deviation grow with the number of subflows.
func BenchmarkFig1aMPTCPSubflowSweep(b *testing.B) {
	for _, subflows := range []int{1, 2, 4, 8, 9} {
		b.Run(fmt.Sprintf("subflows=%d", subflows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(ProtoMPTCP, 300)
				cfg.Subflows = subflows
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
			}
		})
	}
}

// BenchmarkFig1bMPTCP8 regenerates Figure 1(b): the short-flow FCT
// scatter under MPTCP with 8 subflows (heavy RTO tail).
func BenchmarkFig1bMPTCP8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(benchConfig(ProtoMPTCP, 400))
		if err != nil {
			b.Fatal(err)
		}
		reportShort(b, res)
		b.ReportMetric(res.ShortSummary.MaxMs, "max-fct-ms")
	}
}

// BenchmarkFig1cMMPTCP regenerates Figure 1(c): the same workload under
// MMPTCP — the tail collapses, most flows complete quickly.
func BenchmarkFig1cMMPTCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(benchConfig(ProtoMMPTCP, 400))
		if err != nil {
			b.Fatal(err)
		}
		reportShort(b, res)
		b.ReportMetric(res.ShortSummary.MaxMs, "max-fct-ms")
	}
}

// BenchmarkStatsTable regenerates the §3 numbers (mean/std for both
// protocols under the identical workload) in a single bench so the pair
// prints side by side.
func BenchmarkStatsTable(b *testing.B) {
	for _, proto := range []Protocol{ProtoMPTCP, ProtoMMPTCP} {
		b.Run(string(proto), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(benchConfig(proto, 400))
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
			}
		})
	}
}

// BenchmarkXSwitchingStrategies is the §2 ablation: data-volume vs
// congestion-event phase switching.
func BenchmarkXSwitchingStrategies(b *testing.B) {
	for _, strat := range []core.Strategy{core.SwitchDataVolume, core.SwitchCongestionEvent} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(ProtoMMPTCP, 300)
				cfg.Strategy = strat
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
				b.ReportMetric(float64(res.PhaseSwitches), "phase-switches")
			}
		})
	}
}

// BenchmarkXLoadSweep is the roadmap's network-load experiment: the
// whole 6-config scan (3 arrival rates x 2 protocols) runs as one
// RunSweep per iteration, the way cmd/figures -fig load drives it.
func BenchmarkXLoadSweep(b *testing.B) {
	var configs []Config
	for _, rate := range []float64{1, 5, 10} {
		for _, proto := range []Protocol{ProtoMPTCP, ProtoMMPTCP} {
			cfg := benchConfig(proto, 250)
			cfg.ArrivalRate = rate
			configs = append(configs, cfg)
		}
	}
	for i := 0; i < b.N; i++ {
		results, err := RunSweep(configs, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var mean float64
		for _, res := range results {
			mean += res.ShortSummary.MeanMs
		}
		b.ReportMetric(mean/float64(len(results)), "scan-mean-fct-ms")
	}
}

// BenchmarkRunSweepWorkers measures the sweep layer itself: the same
// fixed scan with one worker (the old serial behaviour) and with every
// CPU. On an N-core machine the parallel variant should complete close
// to N times faster, with identical results (TestRunSweepDeterminism).
func BenchmarkRunSweepWorkers(b *testing.B) {
	var configs []Config
	for i := 0; i < 6; i++ {
		cfg := benchConfig(ProtoMMPTCP, 150)
		cfg.Seed = uint64(i + 1)
		configs = append(configs, cfg)
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunSweep(configs, SweepOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkXHotspot is the roadmap's hotspot experiment.
func BenchmarkXHotspot(b *testing.B) {
	for _, proto := range []Protocol{ProtoMPTCP, ProtoMMPTCP} {
		b.Run(string(proto), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(proto, 250)
				cfg.HotspotFraction = 0.5
				cfg.HotspotHost = 0
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
			}
		})
	}
}

// BenchmarkXMultiHomed is the roadmap's dual-homed topology experiment.
func BenchmarkXMultiHomed(b *testing.B) {
	for _, topo := range []TopologyKind{TopoFatTree, TopoMultiHomed} {
		b.Run(string(topo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(ProtoMMPTCP, 250)
				cfg.Topology = topo
				if topo == TopoMultiHomed {
					cfg.K = 4
					cfg.HostsPerEdge = 8
				}
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
			}
		})
	}
}

// BenchmarkXCoexistence shares one dumbbell bottleneck among TCP, MPTCP
// and MMPTCP long flows (§3 co-existence), reporting each goodput.
func BenchmarkXCoexistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		link := topology.DefaultLinkConfig()
		link.RateBps = 1_000_000_000
		d := topology.NewDumbbell(eng, topology.DumbbellConfig{
			HostsPerSide:  3,
			Link:          link,
			BottleneckBps: 100_000_000,
		})
		rng := sim.NewRNG(1)
		protos := []Protocol{ProtoTCP, ProtoMPTCP, ProtoMMPTCP}
		conns := make([]Conn, len(protos))
		for j, proto := range protos {
			conn, err := Dial(eng, &d.Network, Config{Protocol: proto, Subflows: 8}, DialConfig{
				FlowID: uint64(j + 1), Src: j, Dst: d.Cfg.HostsPerSide + j, Size: -1, RNG: rng.Split(),
			})
			if err != nil {
				b.Fatal(err)
			}
			conns[j] = conn
			conn.Start()
		}
		const horizon = 5 * sim.Second
		eng.RunUntil(horizon)
		for j, proto := range protos {
			mbps := float64(conns[j].Receiver().Delivered()) * 8 / horizon.Seconds() / 1e6
			b.ReportMetric(mbps, string(proto)+"-mbps")
		}
	}
}

// BenchmarkEngineThroughput measures raw simulator speed (events/sec) on
// the headline workload, for performance regressions.
func BenchmarkEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(benchConfig(ProtoMMPTCP, 100))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events")
	}
}

// BenchmarkXChurnRecompute exercises reconvergence at paper scale:
// 512 hosts, K=8, hundreds of sampled link transitions, local vs global
// repair. The global variant reports the incremental control plane's
// work counters — before incremental recompute, every one of those
// recomputes rebuilt all 512 destinations (dst-skipped would read 0 and
// bfs-runs would be recomputes x live signatures).
func BenchmarkXChurnRecompute(b *testing.B) {
	for _, mode := range []RoutingMode{RoutingLocal, RoutingGlobal} {
		b.Run(string(mode), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(ChurnBenchConfig(mode, false))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.FaultEvents), "fault-events")
				b.ReportMetric(float64(res.Routing.Recomputes), "recomputes")
				b.ReportMetric(float64(res.Routing.DstRecomputed), "dst-recomputed")
				b.ReportMetric(float64(res.Routing.DstSkipped), "dst-skipped")
				b.ReportMetric(float64(res.Routing.BFSRuns), "bfs-runs")
				b.ReportMetric(float64(res.NoRouteDrops), "noroute")
			}
		})
	}
}

// BenchmarkXDupThreshPolicies ablates the PS duplicate-ACK threshold
// policy (§2 approaches): standard 3 (strawman), topology-derived, and
// RR-TCP-like adaptive.
func BenchmarkXDupThreshPolicies(b *testing.B) {
	for _, mode := range []core.ThresholdMode{
		core.ThresholdStandard, core.ThresholdTopology, core.ThresholdAdaptive,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(ProtoMMPTCP, 300)
				cfg.PSThreshold = mode
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
				var retx int64
				for _, r := range res.ShortFlows {
					retx += r.Retransmissions
				}
				b.ReportMetric(float64(retx), "short-retx")
			}
		})
	}
}

// BenchmarkXSwitchBytesSweep ablates the data-volume threshold: too low
// and short flows leak into the MPTCP phase (back to tiny windows); too
// high and long flows linger on a single window. The five thresholds run
// as one RunSweep per iteration.
func BenchmarkXSwitchBytesSweep(b *testing.B) {
	kbs := []int64{35, 70, 100, 200, 500}
	configs := make([]Config, len(kbs))
	for i, kb := range kbs {
		configs[i] = benchConfig(ProtoMMPTCP, 300)
		configs[i].SwitchBytes = kb * 1000
	}
	for i := 0; i < b.N; i++ {
		results, err := RunSweep(configs, SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var switches float64
		for _, res := range results {
			switches += float64(res.PhaseSwitches)
		}
		// Summed across the scan — a different quantity from the
		// per-config "phase-switches" other benchmarks report.
		b.ReportMetric(switches, "scan-phase-switches")
	}
}

// BenchmarkXDCTCPBaseline adds the single-path ECN baseline from §1 to
// the comparison: good short flows, but it needs switch support and
// cannot use multiple paths.
func BenchmarkXDCTCPBaseline(b *testing.B) {
	for _, proto := range []Protocol{ProtoTCP, ProtoDCTCP, ProtoMMPTCP} {
		b.Run(string(proto), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(benchConfig(proto, 300))
				if err != nil {
					b.Fatal(err)
				}
				reportShort(b, res)
			}
		})
	}
}

// BenchmarkXSACK ablates SACK recovery: does the paper's MPTCP damage
// survive modern loss recovery? (It should: subflow windows too small
// for *any* duplicate-ACK feedback still stall on RTOs.)
func BenchmarkXSACK(b *testing.B) {
	for _, proto := range []Protocol{ProtoMPTCP, ProtoMMPTCP} {
		for _, sack := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/sack=%t", proto, sack), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := benchConfig(proto, 300)
					cfg.SACK = sack
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					reportShort(b, res)
				}
			})
		}
	}
}

// redialChurnConfig is BenchmarkXRedialChurn's outage scenario: a
// 512-host multipath workload under local repair with a mid-run agg-core
// outage, so subflows pinned through the unreachable cores sit in RTO
// backoff until re-dialing replaces them — the work the recovery
// machinery exists for. With recovery false the identical scenario runs
// with the machinery disarmed.
func redialChurnConfig(recovery bool) Config {
	cfg := PaperConfig(ProtoMPTCP, 80)
	cfg.MaxSimTime = 10 * Second
	cfg.Seed = 1
	cfg.Faults = FaultsConfig{
		Events:          FailCables(LayerAgg, 2, 150*Millisecond, 2500*Millisecond),
		ReconvergeDelay: 25 * Millisecond,
	}
	if recovery {
		cfg.Transport = TransportConfig{DeadRTOs: 2, RedialBudget: 8}
	}
	return cfg
}

// BenchmarkXRedialChurn exercises transport recovery on the outage
// scenario (redialChurnConfig): subflows pinned through the unreachable
// cores re-dial onto live paths instead of waiting out the repair in RTO
// backoff. The off variant is the same scenario with the machinery
// disarmed — its numbers must not move as the recovery code evolves.
func BenchmarkXRedialChurn(b *testing.B) {
	for _, recovery := range []bool{false, true} {
		name := "off"
		if recovery {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(redialChurnConfig(recovery))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Redials), "redials")
				b.ReportMetric(float64(res.RedialRecovered), "redial-recovered")
				b.ReportMetric(res.LongThroughputMbps, "long-tput-mbps")
			}
		})
	}
}

// BenchmarkShardScale runs the quick K=16 churn scenario
// (ShardScaleBenchConfig) sequentially and on 4 shards. CI divides the
// seq ns/op by the shards=4 ns/op and fails below a 2x speedup on
// runners with at least 4 cores; on fewer cores the shards time-slice
// and the ratio measures nothing but barrier overhead.
func BenchmarkShardScale(b *testing.B) {
	for _, shards := range []int{0, 4} {
		name := "seq"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run(ShardScaleBenchConfig(shards, true))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Events), "events")
			}
		})
	}
}
