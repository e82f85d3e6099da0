package mmptcp

// Parallel experiment sweeps.
//
// The paper's evaluation is not one simulation but dozens: Figure 1(a)
// alone is nine runs (subflow counts 1..9), the §2/§3 ablations sweep
// switching thresholds, arrival rates and topologies, and every scan is
// embarrassingly parallel — runs share no state, each builds its own
// engine, network and RNG streams from its Config. RunSweep exploits
// that: it fans a slice of Configs across a bounded worker pool (one
// sim.Engine per run, never shared) and returns Results in config order.
//
// Determinism guarantee: a Config fully determines its Results — the
// engine is single-threaded, all randomness flows from Config.Seed
// through sim.RNG streams, and no state leaks between runs — so RunSweep
// returns identical Results for the same configs regardless of
// SweepOptions.Workers, including Workers == 1. TestRunSweepDeterminism
// locks this in.
//
// Quick start (after `go build ./...` at the repo root — the module is
// plain `repro`, no vendoring, no dependencies):
//
//	configs := make([]mmptcp.Config, 9)
//	for i := range configs {
//		configs[i] = mmptcp.SmallConfig(mmptcp.ProtoMPTCP, 1000)
//		configs[i].Subflows = i + 1
//		configs[i].Seed = 1
//	}
//	results, err := mmptcp.RunSweep(configs, mmptcp.SweepOptions{})
//
// cmd/figures drives all its multi-config scans through RunSweep; on a
// multi-core machine `figures -fig all` completes in roughly 1/NumCPU of
// the serial wall time with byte-identical tables (see -workers).

import (
	"context"
	"runtime"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// SweepOptions tunes RunSweep. The zero value is ready to use: all CPUs,
// no cancellation, no progress reporting, seeds taken from the configs.
type SweepOptions struct {
	// Workers caps how many experiments run concurrently. Zero or
	// negative means runtime.GOMAXPROCS(0). Each worker owns at most one
	// live simulation, so peak memory scales with Workers, not with
	// len(configs).
	Workers int

	// Context cancels the sweep: in-flight simulations poll it (see
	// RunContext) and abort early. Nil means context.Background().
	Context context.Context

	// Seed, when non-zero, assigns a derived seed to every config whose
	// own Seed is zero: config i receives sim.NewRNGStream(Seed, i)'s
	// first output. Derivation depends only on (Seed, i), so replicate
	// sets are reproducible and statistically independent across i.
	// Configs with explicit seeds are left untouched.
	Seed uint64

	// Pool recycles run instances (engine + built network) across
	// configs that share a structural Shape instead of rebuilding them
	// for every run: replicate sweeps — many seeds over few shapes — cut
	// their per-run setup allocations to zero in steady state
	// (TestPooledSweepWorkerAllocationFree; perfbench's seed-sweep
	// workload times it). Results are byte-identical to the
	// unpooled path at any worker count (TestPooledSweepByteIdentical);
	// peak live instances stay bounded by Workers per distinct shape.
	Pool bool

	// OnResult, if non-nil, is called after each run completes with the
	// number of runs finished so far, the total, and the finished run's
	// index into configs. Calls are serialised; no locking needed.
	OnResult func(done, total, index int)
}

// RunSweep executes every config as an independent experiment across a
// bounded worker pool and returns the Results in config order (results[i]
// belongs to configs[i]). The first failing run cancels the rest and its
// error is returned, wrapped with the config index.
func RunSweep(configs []Config, opts SweepOptions) ([]*Results, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Seed != 0 {
		derived := make([]Config, len(configs))
		for i, cfg := range configs {
			if cfg.Seed == 0 {
				cfg.Seed = sim.NewRNGStream(opts.Seed, uint64(i)).Uint64()
			}
			derived[i] = cfg
		}
		configs = derived
	}
	// Sharded configs occupy Shards OS threads each; shrink the worker
	// pool so workers × shards stays within the Workers budget
	// (GOMAXPROCS by default) instead of oversubscribing the machine.
	slots := 1
	for _, cfg := range configs {
		if cfg.Shards > slots {
			slots = cfg.Shards
		}
	}
	if opts.Pool {
		pool := sweep.NewInstancePool[Shape, *RunInstance]()
		return sweep.Run(ctx, len(configs), sweep.Options{
			Workers:      opts.Workers,
			SlotsPerTask: slots,
			OnDone:       opts.OnResult,
		}, func(ctx context.Context, i int) (*Results, error) {
			return runPooled(ctx, configs[i], pool)
		})
	}
	return sweep.Run(ctx, len(configs), sweep.Options{
		Workers:      opts.Workers,
		SlotsPerTask: slots,
		OnDone:       opts.OnResult,
	}, func(ctx context.Context, i int) (*Results, error) {
		return RunContext(ctx, configs[i])
	})
}

// DefaultSweepWorkers is the worker count a zero SweepOptions uses:
// runtime.GOMAXPROCS(0), i.e. every available CPU.
func DefaultSweepWorkers() int { return runtime.GOMAXPROCS(0) }
