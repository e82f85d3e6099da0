package main

import (
	"fmt"
	"hash/fnv"
	"sort"

	mmptcp "repro"
)

// A workload is a fixed list of experiment configs. The seed picks
// every experiment's inputs; their count and shape do not depend on it,
// so two runs with one seed simulate exactly the same experiments.
type workload struct {
	name    string
	why     string
	configs func(seed uint64) []mmptcp.Config
	// sweep, when positive, runs the configs in RunSweep calls of that
	// many configs each, on GOMAXPROCS pooled workers. Otherwise each
	// config is its own timed call, run on one RunInstance that is
	// Reset between experiments.
	sweep int
	// healthy workloads inject no faults: every short flow must finish.
	healthy bool
}

// subSeed is the seed of a workload's i-th experiment: a pure function
// of the run's seed, drawn the way RunSweep derives replicate seeds.
func subSeed(seed uint64, i int) uint64 { return mmptcp.NewRNGStream(seed, uint64(i)).Uint64() }

// workloads each load a different set of layers; BENCHMARK.json gives
// the reason for each, README.md the layers it should move.
var workloads = []workload{
	{
		name:    "fabric-steady",
		healthy: true,
		configs: func(seed uint64) []mmptcp.Config {
			var cfgs []mmptcp.Config
			for i := 0; i < 3; i++ {
				cfg := mmptcp.PaperConfig(mmptcp.ProtoMMPTCP, 100)
				cfg.Seed = subSeed(seed, i)
				cfgs = append(cfgs, cfg)
			}
			return cfgs
		},
	},
	{
		name: "churn-repair",
		configs: func(seed uint64) []mmptcp.Config {
			var cfgs []mmptcp.Config
			for i := 0; i < 3; i++ {
				cfg := mmptcp.ChurnBenchConfig(mmptcp.RoutingGlobal, false)
				cfg.Protocol = mmptcp.ProtoMPTCP
				cfg.ShortFlows = 300
				cfg.LongFraction = 0.1
				// Streaks of 3 RTOs take over a second of virtual time, so
				// the run needs 2 s for re-dials to happen.
				cfg.Transport = mmptcp.TransportConfig{DeadRTOs: 3}
				cfg.MaxSimTime = 2 * mmptcp.Second
				cfg.Faults.Model.Horizon = cfg.MaxSimTime
				cfg.Seed = subSeed(seed, i)
				cfgs = append(cfgs, cfg)
			}
			return cfgs
		},
	},
	{
		name:    "seed-sweep",
		sweep:   4, // two runs per worker, so pooled instances are Reset
		healthy: true,
		configs: func(seed uint64) []mmptcp.Config {
			var cfgs []mmptcp.Config
			for i := 0; i < 12; i++ {
				// No TCP: single-path TCP strands short flows for minutes of
				// simulated time on some seeds, even at SmallConfig's rate
				// 2.5 (see README.md).
				for _, proto := range []mmptcp.Protocol{mmptcp.ProtoMPTCP, mmptcp.ProtoMMPTCP} {
					cfg := mmptcp.SmallConfig(proto, 50)
					cfg.Metrics.Mode = mmptcp.MetricsStreaming
					cfg.Seed = subSeed(seed, i)
					cfgs = append(cfgs, cfg)
				}
			}
			return cfgs
		},
	},
	{
		name: "k16-sharded",
		configs: func(seed uint64) []mmptcp.Config {
			var cfgs []mmptcp.Config
			for i := 0; i < 12; i++ {
				cfg := mmptcp.ShardScaleBenchConfig(2, true)
				// Stop at a fixed virtual time, before the slowest short
				// flows finish, so every experiment simulates the same span.
				cfg.MaxSimTime = 200 * mmptcp.Millisecond
				cfg.Faults.Model.Horizon = cfg.MaxSimTime
				cfg.Seed = subSeed(seed, i)
				cfgs = append(cfgs, cfg)
			}
			return cfgs
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// check applies the invariants every experiment must satisfy.
func (w workload) check(cfg mmptcp.Config, r *mmptcp.Results) error {
	s := r.ShortSummary
	switch {
	case r.Spawned != cfg.ShortFlows:
		return fmt.Errorf("spawned %d short flows, configured %d", r.Spawned, cfg.ShortFlows)
	case s.Count+s.Incomplete != r.Spawned:
		return fmt.Errorf("%d complete + %d incomplete short flows != %d spawned", s.Count, s.Incomplete, r.Spawned)
	case w.healthy && s.Incomplete != 0:
		return fmt.Errorf("%d short flows incomplete on a healthy fabric", s.Incomplete)
	case !(r.LongThroughputMbps > 0):
		return fmt.Errorf("long-flow goodput %v Mb/s", r.LongThroughputMbps)
	}
	return nil
}

// digest hashes everything a run simulated. Results holds no pointers
// and fmt prints maps in key order, so equal Results give equal digests.
func digest(r *mmptcp.Results) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return h.Sum64()
}

// simulated holds the paper's outputs pooled over a workload's
// experiments. They depend only on (workload, seed).
type simulated struct {
	spawned, completed int
	fctMeanMs          float64
	fctP50Ms           float64
	fctTailMs          float64
	tailLabel          string // which percentile the tail is, and how it was taken
	rtoFrac            float64
	missFrac           float64
	goodputMbps        float64
}

// pool aggregates the paper's metrics over every experiment of a pass.
// Exact-mode runs pool their per-flow FCTs: the tail is the highest
// order statistic with at least 10 flows beyond it. Streaming runs keep
// no per-flow records, so their p50 and tail are flow-weighted means of
// the per-run histogram percentiles (p99 when the pooled count leaves
// 10 flows beyond it, else p95).
func pool(rs []*mmptcp.Results) simulated {
	var out simulated
	var fcts []float64
	var sumMean, sumP50, sumP95, sumP99, miss, gpSum float64
	var rto, longs int
	streaming := false
	for _, r := range rs {
		s := r.ShortSummary
		out.spawned += r.Spawned
		out.completed += s.Count
		sumMean += s.MeanMs * float64(s.Count)
		sumP50 += s.P50Ms * float64(s.Count)
		sumP95 += s.P95Ms * float64(s.Count)
		sumP99 += s.P99Ms * float64(s.Count)
		rto += s.WithRTO
		miss += r.DeadlineMissRate * float64(r.Spawned)
		gpSum += r.LongThroughputMbps * float64(len(r.LongFlows))
		longs += len(r.LongFlows)
		if r.ShortFlows == nil {
			streaming = true
		}
		for _, f := range r.ShortFlows {
			if f.Completed {
				fcts = append(fcts, float64(f.FCT())/float64(mmptcp.Millisecond))
			}
		}
	}
	n := float64(out.completed)
	if out.completed > 0 {
		out.fctMeanMs = sumMean / n
	}
	if out.spawned > 0 {
		out.rtoFrac = float64(rto) / float64(out.spawned)
		out.missFrac = miss / float64(out.spawned)
	}
	if longs > 0 {
		out.goodputMbps = gpSum / float64(longs)
	}
	switch {
	case streaming && out.completed > 0:
		out.fctP50Ms = sumP50 / n
		if n*0.01 >= 10 {
			out.fctTailMs, out.tailLabel = sumP99/n, "p99 (flow-weighted mean of per-run streaming p99)"
		} else {
			out.fctTailMs, out.tailLabel = sumP95/n, "p95 (flow-weighted mean of per-run streaming p95)"
		}
	case len(fcts) > 10:
		sort.Float64s(fcts)
		out.fctP50Ms = fcts[(len(fcts)-1)/2]
		k := len(fcts) - 11 // exactly 10 flows beyond it
		out.fctTailMs = fcts[k]
		out.tailLabel = fmt.Sprintf("p%.2f (order statistic %d of %d)", 100*float64(k+1)/n, k+1, len(fcts))
	}
	return out
}
