package main

import (
	"bytes"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
	"dualpar/internal/sim"
)

// Span names: wall time spent in the benchmark's own calls into each layer,
// summed over a repetition's schemes.
const (
	spanClusterNew = "span.cluster_new_s" // cluster.New (+ EnableIntegrity when armed)
	spanRunnerAdd  = "span.runner_add_s"  // EnableObs, core.NewRunner and every Add
	spanRun        = "span.run_s"         // Runner.Run
	spanDrain      = "span.drain_s"       // burst Tier.WaitDrained
	spanAnalyze    = "span.analyze_s"     // analyze.FromCollector
	spanRender     = "span.render_s"      // Report.RenderText
	spanVerify     = "span.verify_s"      // integrity re-read (oracle repetition only)
)

var spanNames = []string{spanClusterNew, spanRunnerAdd, spanRun, spanDrain, spanAnalyze, spanRender, spanVerify}

// schemeRun is one scheme's cluster after its run, kept reachable until the
// repetition's live-heap measurement.
type schemeRun struct {
	scheme scheme
	cl     *cluster.Cluster
	runner *core.Runner
	runs   []*core.ProgramRun
	col    *obs.Collector
	rep    *analyze.Report
	text   []byte
}

// repResult is everything one repetition measured. A repetition runs in a
// child process of its own and reports this as JSON.
type repResult struct {
	// HostS and Setups are CPU time (user + system) of this process: on a
	// shared VM, stolen time and neighbours made wall time swing by half
	// within minutes, and CPU time leaves the stolen part out.
	HostS     float64 `json:"host_s"`
	HostWallS float64 `json:"host_wall_s"`
	// Setups holds each cluster's set-up time, in run order.
	Setups  []float64          `json:"setups"`
	AllocMB float64            `json:"alloc_MB"`
	AllocsK float64            `json:"allocs_k"`
	LiveMB  float64            `json:"live_MB"`
	Spans   map[string]float64 `json:"spans"`
	// Model holds the simulated statistics: sim_MBps_* and the model
	// counters. They must repeat exactly for a seed.
	Model map[string]float64 `json:"model"`
	// Attempted and Failed count operations: MPI-IO calls, plus the write
	// segments the integrity oracle re-read in an oracle repetition.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Stale counts the written segments the oracle read back stale.
	Stale int64 `json:"stale"`
	// FirstStale names the first stale range the oracle found.
	FirstStale string `json:"first_stale,omitempty"`
	// CPU holds sampled CPU nanoseconds per layer (profiled repetitions).
	CPU map[string]int64 `json:"cpu,omitempty"`
}

// subRuns is how many clusters, each with its own seed, a repetition runs
// per scheme. Throughput and host time then average over several disk and
// fault timelines instead of hanging on one seed's luck.
const subRuns = 4

// clusterSeeds derives a repetition's cluster seeds from the benchmark
// seed. The first is the seed itself; the others sit a large prime apart,
// so different benchmark seeds below that prime share no cluster seed.
func clusterSeeds(seed int64) []int64 {
	out := make([]int64, subRuns)
	for j := range out {
		out[j] = seed + int64(j)*1_000_003
	}
	return out
}

// runRep runs one repetition: every scheme of w on subRuns fresh clusters,
// one after the other. With oracles armed the runners audit every invariant,
// the PFS tracks version stamps, and after the timed window every written
// segment is re-read and compared. An audit violation, a program error or
// an unfinished program is returned as an error.
func runRep(w *workload, seed int64, oracles bool) (*repResult, error) {
	res := &repResult{Spans: make(map[string]float64), Model: make(map[string]float64)}
	runs := make([]*schemeRun, 0, len(schemes)*subRuns)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	start, startCPU := time.Now(), cpuSeconds()
	for _, s := range schemes {
		for _, cs := range clusterSeeds(seed) {
			sr, err := runScheme(w, s, cs, oracles, res)
			if err != nil {
				return nil, err
			}
			runs = append(runs, sr)
		}
	}
	res.HostS = cpuSeconds() - startCPU
	res.HostWallS = time.Since(start).Seconds()

	runtime.ReadMemStats(&after)
	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.AllocsK = float64(after.Mallocs-before.Mallocs) / 1e3
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.LiveMB = float64(after.HeapAlloc) / (1 << 20)

	// The model counters are read before the oracle re-read, which adds
	// simulated traffic of its own.
	for _, sr := range runs {
		collectModel(res.Model, sr)
	}
	res.Attempted = int64(res.Model["mpiio.calls"])
	if oracles {
		t := time.Now()
		for _, sr := range runs {
			segs, stale, first, err := verify(sr.cl)
			if err != nil {
				return nil, fmt.Errorf("%s: integrity re-read: %w", sr.scheme.label, err)
			}
			res.Attempted += segs
			res.Failed += stale
			res.Stale += stale
			if res.FirstStale == "" && first != "" {
				res.FirstStale = fmt.Sprintf("%s (cluster seed %d): %s", sr.scheme.label, sr.cl.Config().Seed, first)
			}
		}
		res.Spans[spanVerify] = time.Since(t).Seconds()
	}
	finishModel(res.Model)
	runtime.KeepAlive(runs)
	return res, nil
}

// runScheme runs one scheme's batch on a fresh cluster built from
// clusterSeed, appending the CPU time of its set-up to res.Setups and the wall
// time of each call into the simulator to res.Spans.
func runScheme(w *workload, s scheme, clusterSeed int64, oracles bool, res *repResult) (*schemeRun, error) {
	sr := &schemeRun{scheme: s}
	label := fmt.Sprintf("%s (cluster seed %d)", s.label, clusterSeed)
	spans := res.Spans
	c0, t0 := cpuSeconds(), time.Now()
	sr.cl = cluster.New(w.config(clusterSeed))
	if oracles {
		sr.cl.FS.EnableIntegrity()
	}
	t1 := time.Now()
	if w.report {
		sr.col = obs.NewCollector()
		sr.cl.EnableObs(sr.col)
	}
	cfg := w.core
	cfg.Audit = oracles
	sr.runner = core.NewRunner(sr.cl, cfg)
	for _, ps := range w.programs(s) {
		sr.runs = append(sr.runs, sr.runner.Add(ps.prog, ps.mode, ps.opts))
	}
	t2 := time.Now()
	res.Setups = append(res.Setups, cpuSeconds()-c0)
	finished := sr.runner.Run(w.maxTime)
	t3 := time.Now()
	drainErr := drain(sr.cl)
	t4 := time.Now()
	spans[spanClusterNew] += t1.Sub(t0).Seconds()
	spans[spanRunnerAdd] += t2.Sub(t1).Seconds()
	spans[spanRun] += t3.Sub(t2).Seconds()
	spans[spanDrain] += t4.Sub(t3).Seconds()
	if w.report {
		sr.rep = analyze.FromCollector(sr.col, analyze.Options{})
		t5 := time.Now()
		var buf bytes.Buffer
		if err := sr.rep.RenderText(&buf); err != nil {
			return nil, fmt.Errorf("%s: render report: %w", label, err)
		}
		sr.text = buf.Bytes()
		spans[spanAnalyze] += t5.Sub(t4).Seconds()
		spans[spanRender] += time.Since(t5).Seconds()
	}
	if err := sr.runner.AuditErr(); err != nil {
		return nil, fmt.Errorf("%s: audit: %w", label, err)
	}
	if !finished {
		return nil, fmt.Errorf("%s: programs did not finish within %v of simulated time", label, w.maxTime)
	}
	for i, pr := range sr.runs {
		if err := pr.Err(); err != nil {
			return nil, fmt.Errorf("%s: program %d (%s): %w", label, i, pr.Prog().Name(), err)
		}
	}
	if drainErr != nil {
		return nil, fmt.Errorf("%s: burst drain: %w", label, drainErr)
	}
	return sr, nil
}

// cpuSeconds is the CPU time, user plus system, this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// drain waits until the cluster's burst tier has written every absorbed
// byte to the PFS. The kernel also hosts daemons that never exit, so it is
// driven in bounded steps rather than run dry. A no-op without a tier.
func drain(cl *cluster.Cluster) error {
	tier := cl.Burst()
	if tier == nil {
		return nil
	}
	var err error
	done := false
	cl.K.Spawn("perfbench/drain", func(p *sim.Proc) {
		err = tier.WaitDrained(p)
		done = true
	})
	if !driveUntil(cl, &done, 30*time.Minute) {
		return fmt.Errorf("not drained after 30m of simulated time")
	}
	return err
}

// driveUntil runs the kernel in one-second simulated steps until *done or
// the budget of simulated time is spent, and reports whether *done.
func driveUntil(cl *cluster.Cluster, done *bool, budget time.Duration) bool {
	deadline := cl.K.Now() + budget
	for !*done && cl.K.Now() < deadline {
		cl.K.RunUntil(min(cl.K.Now()+time.Second, deadline))
	}
	return *done
}
