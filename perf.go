package mmptcp

// ChurnBenchConfig is the fault-heavy benchmark scenario shared by
// BenchmarkXChurnRecompute and perfbench's churn-repair workload: the
// ROADMAP's paper-scale 512-host K=8 FatTree (a 64-host K=4 in quick
// mode) under a high-churn MTBF/MTTR model with the routing mode under
// test. Churn concentrates at the access layer, as in production failure
// studies (server and ToR ports flap far more often than fabric cables),
// with a slower trickle of aggregation cable cuts keeping the fabric
// tables moving too. Flows are few — the scenario isolates the control
// plane's reconvergence work, which before incremental recompute
// dominated fault-heavy runs at this scale.
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

// ShardScaleBenchConfig is the ROADMAP's K=16 target scenario: a
// 16-pod, 320-switch FatTree (3,456 hosts at full scale, 256 in quick
// mode) under a steady trickle of aggregation-cable churn with global
// repair — the fabric size the parallel engine exists for. perfbench's
// k16-sharded workload runs it on 2 shards; BenchmarkShardScale runs it
// sequentially and on 4 shards, and CI holds that pair to a 2x speedup
// floor only on runners with >= 4 cores, since on fewer cores the
// windowed barrier can only add overhead.
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
