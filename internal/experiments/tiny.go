package experiments

import (
	"hclocksync/internal/bench"
	"hclocksync/internal/clocksync"
	"hclocksync/internal/cluster"
)

// Tiny*Config variants shrink each experiment to seconds of wall clock.
// They drive the unit tests and the repository benchmark harness
// (bench_test.go); the Default*Config variants are the CLI scale.

// TinyFig2Config: 6 nodes, 40 s horizon.
func TinyFig2Config() Fig2Config {
	c := DefaultFig2Config()
	c.Job.NProcs = 6
	c.Duration = 40
	c.SampleEvery = 1
	c.Exchanges = 5
	return c
}

func tinyParams() clocksync.Params {
	return clocksync.Params{NFitpoints: 40, Offset: clocksync.SKaMPIOffset{NExchanges: 10}}
}

// TinyFig3Config: 16 ranks, 3 runs, 2 s wait.
func TinyFig3Config() SyncAccuracyConfig {
	p := tinyParams()
	ri := p
	ri.RecomputeIntercept = true
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 8, 1
	return SyncAccuracyConfig{
		Job:      Job{Spec: spec, NProcs: 16, Seed: 3},
		NRuns:    3,
		WaitTime: 2,
		Algorithms: []clocksync.Algorithm{
			clocksync.HCA{Params: p},
			clocksync.HCA2{Params: ri},
			clocksync.HCA3{Params: ri},
			clocksync.JK{Params: p},
		},
		Check: clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 8}},
	}
}

// TinyFig4Config: HCA3 vs H2HCA at 16 ranks.
func TinyFig4Config() SyncAccuracyConfig {
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 4, 2
	return SyncAccuracyConfig{
		Job:        Job{Spec: spec, NProcs: 16, Seed: 4},
		NRuns:      3,
		WaitTime:   2,
		Algorithms: fig456Algorithms(40, 10),
		Check:      clocksync.CheckConfig{Offset: clocksync.SKaMPIOffset{NExchanges: 8}},
	}
}

// TinyFig5Config: the Hydra variant at 16 ranks.
func TinyFig5Config() SyncAccuracyConfig {
	c := TinyFig4Config()
	spec := cluster.Hydra()
	spec.Nodes, spec.CoresPerSocket = 4, 2
	c.Job = Job{Spec: spec, NProcs: 16, Seed: 5}
	return c
}

// TinyFig6Config: the Titan variant at 32 ranks with 1/4 sampling.
func TinyFig6Config() SyncAccuracyConfig {
	spec := cluster.Titan()
	spec.Nodes, spec.CoresPerSocket = 8, 2
	return SyncAccuracyConfig{
		Job:        Job{Spec: spec, NProcs: 32, Seed: 6},
		NRuns:      2,
		WaitTime:   2,
		Algorithms: fig456Algorithms(40, 10),
		Check: clocksync.CheckConfig{
			Offset:       clocksync.SKaMPIOffset{NExchanges: 8},
			SampleStride: 4,
		},
	}
}

// TinyFig7Config: 16 ranks, 20 repetitions.
func TinyFig7Config() Fig7Config {
	c := DefaultFig7Config()
	spec := cluster.Jupiter()
	spec.Nodes, spec.CoresPerSocket = 4, 2
	c.Job = Job{Spec: spec, NProcs: 16, Seed: 7}
	c.NRep = 20
	return c
}

// TinyFig8Config keeps the default 64 ranks (the tree-vs-dissemination
// ordering needs scale to emerge; see EXPERIMENTS.md) but fewer calls.
func TinyFig8Config() Fig8Config {
	c := DefaultFig8Config()
	c.NCalls = 150
	c.NRuns = 2
	c.Sync = clocksync.NewH2HCA(clocksync.HCA3{Params: tinyParams()})
	return c
}

// TinyFig9Config: 16 ranks, 4 message sizes, 2 runs.
func TinyFig9Config() Fig9Config {
	c := DefaultFig9Config()
	spec := cluster.Titan()
	spec.Nodes, spec.CoresPerSocket = 4, 2
	c.Job = Job{Spec: spec, NProcs: 16, Seed: 9}
	c.MSizes = []int{8, 64, 256, 1024}
	c.NRuns = 2
	c.NRep = 20
	c.Sync = clocksync.NewH2HCA(clocksync.HCA3{Params: tinyParams()})
	c.RoundTime = bench.RoundTimeConfig{MaxTimeSlice: 10e-3, MaxNRep: 20}
	return c
}

// TinyFig10Config: 6 nodes × 4 ranks.
func TinyFig10Config() Fig10Config {
	c := DefaultFig10Config()
	spec := cluster.Jupiter()
	spec.Nodes, spec.SocketsPerNode, spec.CoresPerSocket = 6, 2, 2
	c.Job = Job{Spec: spec, NProcs: 24, Seed: 10}
	c.App.Iters = 12
	c.Sync = clocksync.NewH2HCA(clocksync.HCA3{Params: tinyParams()})
	return c
}

// TinyDriftAwareConfig: the default job, 2 runs.
func TinyDriftAwareConfig() DriftAwareConfig {
	c := DefaultDriftAwareConfig()
	c.NRuns = 2
	return c
}

// TinyWindowLossConfig: the default job, 100 repetitions.
func TinyWindowLossConfig() WindowLossConfig {
	c := DefaultWindowLossConfig()
	c.NRep = 100
	return c
}

// TinyTraceCorrectionConfig: 20 iterations of 2 s compute.
func TinyTraceCorrectionConfig() TraceCorrectionConfig {
	c := DefaultTraceCorrectionConfig()
	c.NIter, c.ComputePer = 20, 2
	return c
}

// TinyTuningConfig: 10 repetitions at the two extreme message sizes.
func TinyTuningConfig() TuningConfig {
	c := DefaultTuningConfig()
	c.NRep, c.MSizes = 10, []int{8, 8192}
	return c
}
