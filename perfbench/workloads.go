package main

import (
	"fmt"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/workloads"
)

// scheme is one execution scheme of the paper's comparison. Every
// repetition runs each scheme on a fresh cluster.
type scheme struct {
	label string
	mode  core.Mode
}

// schemes are the paper's three: computation-driven vanilla MPI-IO,
// collective (two-phase) I/O, and DualPar with data-driven mode pinned on,
// as the paper's concurrent-program comparisons run it.
var schemes = []scheme{
	{"vanilla", core.ModeVanilla},
	{"collective", core.ModeCollective},
	{"dualpar", core.ModeDataDriven},
}

// progSpec is one program of a scheme's concurrent batch.
type progSpec struct {
	prog workloads.Program
	mode core.Mode
	opts core.AddOptions
}

// workload is a closed batch: fixed programs run to completion under each
// scheme. The seed reaches only cluster.Config.Seed.
type workload struct {
	name string
	// config returns the cluster configuration for a seed.
	config func(seed int64) cluster.Config
	// core is the DualPar configuration every scheme's runner uses.
	core core.Config
	// programs lists the batch run under a scheme.
	programs func(s scheme) []progSpec
	// maxTime bounds each scheme's simulated run.
	maxTime time.Duration
	// report attaches an obs.Collector and ends each scheme with the
	// -report path: analysis and a text render.
	report bool
}

// workloadList holds every workload, in the order the documentation gives.
var workloadList = []*workload{readMPIIO(), ckptWrite(), reportBTIO()}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func defaultCluster(seed int64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// readMPIIO is the paper's headline comparison: three concurrent
// mpi-io-test readers of 64 ranks each, 8 ranks per node, on the default
// cluster (extent engine, one replica, no faults, tracing off).
func readMPIIO() *workload {
	return &workload{
		name:    "read-mpiio",
		config:  defaultCluster,
		core:    core.DefaultConfig(),
		maxTime: 12 * time.Hour,
		programs: func(s scheme) []progSpec {
			out := make([]progSpec, 3)
			for i := range out {
				m := workloads.DefaultMPIIOTest()
				m.FileBytes = 48 << 20
				m.FileName = fmt.Sprintf("mpi-io-test-%d.dat", i)
				out[i] = progSpec{prog: m, mode: s.mode, opts: core.AddOptions{RanksPerNode: 8}}
			}
			return out
		},
	}
}

// ckptCrash crash-stops server 2 while the checkpoint is writing; it
// recovers before the run ends, so the rebuild runs too.
var ckptCrash = fault.Window{Kind: fault.ServerCrash, Target: 2, Start: 400 * time.Millisecond, End: 1100 * time.Millisecond}

// ckptWrite is an N-1 epoch checkpoint written through node-local burst
// logs onto 3-way replicated storage while server 2 crash-stops and
// recovers, next to a concurrent interleaved reader. The PFS and CRM
// watchdogs are the availability experiment's.
func ckptWrite() *workload {
	ddCfg := core.DefaultConfig()
	ddCfg.CRMTimeout = 2 * time.Second
	ddCfg.CRMMaxRetries = 3
	ddCfg.CRMBackoff = 50 * time.Millisecond
	return &workload{
		name: "ckpt-write",
		config: func(seed int64) cluster.Config {
			cfg := defaultCluster(seed)
			cfg.Faults = &fault.Schedule{Windows: []fault.Window{ckptCrash}}
			cfg.PFS.Replicas = 3
			cfg.PFS.DetectDelay = 100 * time.Millisecond
			cfg.PFS.RequestTimeout = 250 * time.Millisecond
			cfg.PFS.MaxRetries = 4
			cfg.PFS.RetryBackoff = 20 * time.Millisecond
			bc := burst.DefaultConfig()
			cfg.Burst = &bc
			return cfg
		},
		core:    ddCfg,
		maxTime: time.Hour,
		programs: func(s scheme) []progSpec {
			writer := workloads.DefaultEpochCheckpoint(true)
			writer.Epochs = 10
			reader := workloads.DefaultDemo()
			reader.ComputePerCall = 30 * time.Millisecond
			reader.FileBytes = 60 * int64(reader.Procs) * int64(reader.SegsPerCall) * reader.SegBytes
			mode := s.mode
			if mode == core.ModeDataDriven {
				// The reader is left to the EMC, which switches it in and
				// out of data-driven mode as the checkpoint traffic comes
				// and goes.
				mode = core.ModeDualPar
			}
			return []progSpec{
				{prog: writer, mode: core.ModeVanilla, opts: core.AddOptions{RanksPerNode: 8}},
				{prog: reader, mode: mode, opts: core.AddOptions{RanksPerNode: 8, FirstNodeIndex: 2}},
			}
		},
	}
}

// reportBTIO is three concurrent 16-rank BTIO writers with a collector
// attached, each scheme ending in analysis and a text report: the
// -report path, where most of the host time goes to obs and analyze.
func reportBTIO() *workload {
	return &workload{
		name:    "report-btio",
		config:  defaultCluster,
		core:    core.DefaultConfig(),
		maxTime: 12 * time.Hour,
		report:  true,
		programs: func(s scheme) []progSpec {
			out := make([]progSpec, 3)
			for i := range out {
				b := workloads.DefaultBTIO()
				b.Procs = 16
				b.TotalBytes = 256 << 10
				b.Steps = 2
				b.StepCompute = 20 * time.Millisecond
				b.FileName = fmt.Sprintf("btio-%d.dat", i)
				out[i] = progSpec{prog: b, mode: s.mode, opts: core.AddOptions{RanksPerNode: 8}}
			}
			return out
		},
	}
}
