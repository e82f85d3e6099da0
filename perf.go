package mmptcp

// EngineBenchConfig is BenchmarkEngineThroughput's workload — the
// headline MMPTCP experiment on the bench-scale FatTree — shared with
// cmd/bench so the tracked "engine-throughput" row in BENCH.json always
// measures the same scenario as the in-repo benchmark.
func EngineBenchConfig(quick bool) Config {
	flows := 100
	if quick {
		flows = 50
	}
	cfg := SmallConfig(ProtoMMPTCP, flows)
	cfg.Seed = 1
	return cfg
}

// ChurnBenchConfig is the tracked fault-heavy benchmark scenario shared
// by BenchmarkXChurnRecompute and cmd/bench, so BENCH.json and the in-
// repo benchmark always measure the same workload: the ROADMAP's
// paper-scale 512-host K=8 FatTree (a 64-host K=4 in quick mode) under
// a high-churn MTBF/MTTR model with the routing mode under test. Churn
// concentrates at the access layer, as in production failure studies
// (server and ToR ports flap far more often than fabric cables), with a
// slower trickle of aggregation cable cuts keeping the fabric tables
// moving too. Flows are few — the scenario isolates the control plane's
// reconvergence work, which before incremental recompute dominated
// fault-heavy runs at this scale.
func ChurnBenchConfig(mode RoutingMode, quick bool) Config {
	var cfg Config
	if quick {
		cfg = SmallConfig(ProtoTCP, 20)
		cfg.MaxSimTime = 2 * Second
	} else {
		cfg = PaperConfig(ProtoTCP, 30)
		cfg.MaxSimTime = 3 * Second
	}
	cfg.Seed = 1
	cfg.Faults = FaultsConfig{
		Model: FaultModel{
			Layers: []FaultLayerModel{
				{Layer: LayerHost, MTBF: 1 * Second, MTTR: 50 * Millisecond},
				{Layer: LayerAgg, MTBF: 8 * Second, MTTR: 100 * Millisecond},
			},
			Horizon: cfg.MaxSimTime,
		},
		ReconvergeDelay: 10 * Millisecond,
	}
	cfg.Routing.Mode = mode
	return cfg
}

// SweepScaleBenchConfig is the tracked sweep-scale scenario shared with
// cmd/bench's sweep-scale rows: the bench-scale MMPTCP experiment run as
// a replicate sweep, where every replicate shares one Shape and only the
// seed varies — the case run-instance pooling exists for. The rows
// measure per-replicate setup cost (fresh build vs pooled reset — the
// setup_allocs_ratio CI guards), per-flow memory in exact vs streaming
// metrics mode, and the end-to-end pooled vs unpooled sweep.
func SweepScaleBenchConfig(quick bool) Config {
	flows := 200
	if quick {
		flows = 50
	}
	cfg := SmallConfig(ProtoMMPTCP, flows)
	cfg.Seed = 1
	return cfg
}

// ShardThroughputBenchConfig is the tracked parallel-engine comparison
// workload: exactly the engine-throughput scenario with the fabric
// partitioned across the given shard count (0 = the sequential oracle),
// so the shard-throughput/{seq,2,4} rows in BENCH.json measure the same
// experiment and their events/sec ratio is a like-for-like speedup.
func ShardThroughputBenchConfig(shards int, quick bool) Config {
	cfg := EngineBenchConfig(quick)
	cfg.Shards = shards
	return cfg
}

// ShardScaleBenchConfig is the ROADMAP's K=16 target scenario: a
// 16-pod, 320-switch FatTree (3,456 hosts at full scale, 256 in quick
// mode) under a steady trickle of aggregation-cable churn with global
// repair — the fabric size the parallel engine exists for. cmd/bench
// runs it sequentially and with 4 shards and records the measured
// speedup; the CI guard holds the 2x floor only on runners with >= 4
// cores, since on fewer cores the windowed barrier can only add
// overhead.
func ShardScaleBenchConfig(shards int, quick bool) Config {
	cfg := Config{
		Topology:    TopoFatTree,
		K:           16,
		Protocol:    ProtoMMPTCP,
		ArrivalRate: 100,
		Seed:        1,
		Shards:      shards,
	}
	if quick {
		cfg.HostsPerEdge = 2 // 256 hosts; the switch fabric keeps its full 320-switch K=16 shape
		cfg.ShortFlows = 40
		cfg.MaxSimTime = 1 * Second
	} else {
		cfg.HostsPerEdge = 27 // 3,456 hosts — the ROADMAP's K=16 fabric
		cfg.ShortFlows = 200
		cfg.MaxSimTime = 2 * Second
	}
	// A K=16 tree has 1,024 aggregation cables regardless of host
	// count; a 60 s per-cable MTBF works out to ~17 cuts per simulated
	// second — enough reconvergence traffic to keep every pod's tables
	// moving without the control plane drowning the data plane.
	cfg.Faults = FaultsConfig{
		Model: FaultModel{
			Layers:  []FaultLayerModel{{Layer: LayerAgg, MTBF: 60 * Second, MTTR: 100 * Millisecond}},
			Horizon: cfg.MaxSimTime,
		},
		ReconvergeDelay: 10 * Millisecond,
	}
	cfg.Routing.Mode = RoutingGlobal
	return cfg
}

// StaggeredChurnBenchConfig is the tracked staggered-convergence
// scenario: ChurnBenchConfig's churn under global routing with
// per-switch FIB flips spread 2ms per hop from each failure, so the
// scheduling overhead (flip events, staged tables, window accounting)
// is measured against the atomic churn baseline on the same workload.
func StaggeredChurnBenchConfig(quick bool) Config {
	cfg := ChurnBenchConfig(RoutingGlobal, quick)
	cfg.Routing.Convergence = ConvergeStaggered
	cfg.Routing.PerHopDelay = 2 * Millisecond
	return cfg
}

// RedialChurnBenchConfig is the tracked transport-recovery scenario
// shared with cmd/bench's recovery rows: a multipath workload under
// local repair with a mid-run agg-core outage, so subflows pinned
// through the unreachable cores sit in RTO backoff until re-dialing
// replaces them — the work the recovery machinery exists for. With
// recovery false the identical scenario runs with the machinery
// disarmed; that row is the no-regression baseline the CI guard holds
// against the tracked BENCH.json, since arming the knobs must cost
// nothing until a re-dial actually fires.
func RedialChurnBenchConfig(recovery, quick bool) Config {
	var cfg Config
	if quick {
		cfg = SmallConfig(ProtoMPTCP, 40)
	} else {
		cfg = PaperConfig(ProtoMPTCP, 80)
	}
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
