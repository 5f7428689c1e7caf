// Command dualpar-sim runs one benchmark on the simulated cluster under a
// chosen execution scheme and prints the measured outcome: elapsed time,
// throughput, disk efficiency, cache behavior, and mode switches.
//
// Usage:
//
//	dualpar-sim -workload mpi-io-test -mode dualpar -procs 64 -mb 128 [-write]
//	            [-servers 9] [-sched cfq|deadline|noop|anticipatory]
//	            [-engine extent|bptree|lsm] [-seed N] [-slot D] [-emclog]
//	            [-trace out.json] [-stats] [-report] [-faults SPEC] [-replicas N]
//	            [-burst SPEC] [-audit]
//	dualpar-sim -tenants SPEC [cluster flags] [output flags]
//
// The cluster flags (-servers, -sched, -engine, -replicas, -faults, -burst,
// -seed, -slot, -audit) and the output flags (-trace, -stats, -report,
// -emclog) mean the same in both modes; a bad value in any of them, or in
// the workload, mode or tenancy spec, exits 2.
//
// -trace writes a Chrome trace-event JSON of every I/O request's journey
// through the stack (load it at ui.perfetto.dev); -stats prints the metrics
// registry (latency histograms, counters, gauges) after the run; -report
// prints the time-attribution report (phase breakdown, per-server
// utilization, critical paths — see dualpar-analyze for offline use on a
// saved -trace file).
//
// -faults injects a deterministic fault schedule (see fault.Parse), e.g.
// "disk:1*10@5s-30s;crash:2@5s-20s;drop:102:0.2@0s-10s", and arms the
// client and CRM retry watchdogs; fault windows, drops, retries, failovers,
// and rebuild progress appear as instants in -trace output.
//
// -replicas N stripes each file across N replicas (rack-stride placement);
// reads fail over between replicas and writes complete at a majority quorum
// when crash faults are scheduled.
//
// -tenants SPEC switches to multi-tenant mode: instead of one workload, a
// seeded generator launches each tenant's stream of small jobs onto one
// shared cluster and the cluster-wide arbiter rations data-driven grants
// under the spec's policy (see tenant.ParseSpec), e.g.
// "tenants:4,arrival=poisson:12,policy=fair,grants=12,cache=64M,jobs=40,ranks=2,hot=0x6".
// The run prints per-tenant job counts, grant/deny/revoke totals, and
// elapsed-time percentiles (and the fault summary under -faults); the
// workload flags (-workload, -mode, -procs, -mb, -write) do not apply.
//
// -burst SPEC adds a burst-buffer write log on every compute node:
// epoch-tagged checkpoint writes (ckpt-n1/ckpt-nn workloads) absorb into
// the node-local log at log speed and drain to the PFS in the background;
// an epoch is committed once every rank has sealed it. SPEC is "on" for
// the defaults or "cap=64M,absorb=400M,drain=100M,seal=500us" form (see
// burst.ParseSpec). "crash:client<rank>@T" in -faults crash-stops the job:
// unsealed log records are lost, sealed ones replay on recovery.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// simFlags are the flags that shape the simulated cluster and the DualPar
// runtime; buildConfig turns them into configs for both modes.
type simFlags struct {
	servers, replicas                     int
	sched, engine, faults, burst, tenants string
	seed                                  int64
	slot                                  time.Duration
	audit                                 bool
}

// run is main with its arguments, output streams and exit code explicit,
// so tests can drive the command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dualpar-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f simFlags
	workload := fs.String("workload", "mpi-io-test", "demo|mpi-io-test|hpio|ior-mpi-io|noncontig|btio|s3asim|checkpoint|ckpt-n1|ckpt-nn|depreader")
	mode := fs.String("mode", "vanilla", "vanilla|collective|strategy2|dualpar|data-driven")
	procs := fs.Int("procs", 64, "MPI processes")
	mbytes := fs.Int64("mb", 64, "data volume in MiB")
	write := fs.Bool("write", false, "write instead of read (where applicable)")
	fs.IntVar(&f.servers, "servers", 9, "data servers")
	fs.StringVar(&f.sched, "sched", "cfq", "disk scheduler: cfq|deadline|noop|anticipatory")
	fs.StringVar(&f.engine, "engine", "", "data-server storage engine: extent|bptree|lsm (default extent)")
	fs.Int64Var(&f.seed, "seed", 1, "simulation seed")
	emclog := fs.Bool("emclog", false, "print EMC's per-slot decisions")
	fs.DurationVar(&f.slot, "slot", 0, "EMC sampling slot (default 1s; 250ms with -tenants)")
	traceOut := fs.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	stats := fs.Bool("stats", false, "print the metrics registry after the run")
	report := fs.Bool("report", false, "print the time-attribution report (phases, utilization, critical paths)")
	fs.StringVar(&f.faults, "faults", "", "fault schedule, e.g. 'disk:1*10@5s-30s;crash:2@5s-20s;drop:102:0.2'")
	fs.IntVar(&f.replicas, "replicas", 1, "data replicas per stripe (1 = unreplicated)")
	fs.BoolVar(&f.audit, "audit", false, "arm the invariant oracles; violations exit 1 with a reproducer artifact")
	fs.StringVar(&f.burst, "burst", "", "per-node burst-buffer write log: 'on' for defaults or 'cap=64M,absorb=400M,drain=100M,seal=500us'")
	fs.StringVar(&f.tenants, "tenants", "", "multi-tenant mode: tenancy spec (see tenant.ParseSpec), e.g. 'tenants:4,arrival=poisson:12,policy=fair,grants=12,jobs=40,ranks=2'")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	ccfg, dcfg, err := buildConfig(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var prog workloads.Program
	var m core.Mode
	if f.tenants == "" {
		if prog, err = buildWorkload(*workload, *procs, *mbytes, *write); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if m, err = core.ParseMode(*mode); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	var collector *obs.Collector
	if *traceOut != "" || *stats || *report {
		collector = obs.NewCollector()
		ccfg.Obs = collector
	}
	cl := cluster.New(ccfg)
	runner := core.NewRunner(cl, dcfg)
	var pr *core.ProgramRun
	var sched []tenant.Job
	var runs []*core.ProgramRun
	if f.tenants == "" {
		pr = runner.Add(prog, m, core.AddOptions{RanksPerNode: 8})
	} else {
		sched, runs = runner.AddSchedule(1)
	}
	finished := runner.Run(24 * time.Hour)
	if !finished && pr != nil {
		fmt.Fprintln(stderr, "simulation did not finish within 24 simulated hours")
		return 1
	}
	if err := runner.AuditErr(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if pr != nil {
		printWorkload(stdout, cl, pr, *workload, *write)
	} else {
		printTenants(stdout, cl, sched, runs, finished)
	}
	if dcfg.Audit {
		fmt.Fprintf(stdout, "audit:       all %d oracles held\n", runner.Auditor().Oracles())
	}
	if *emclog {
		fmt.Fprintln(stdout, "EMC decisions (t, io_ratio, seek/req improvement, data-driven):")
		for _, d := range runner.EMCDecisions() {
			fmt.Fprintf(stdout, "  %6.2fs  io=%.2f  imp=%6.1f  dd=%v\n",
				d.At.Seconds(), d.IORatio, d.Improvement, d.DataDriven)
		}
	}
	if pr != nil && len(pr.ModeSwitches) > 0 {
		fmt.Fprintf(stdout, "mode log:    ")
		for _, sw := range pr.ModeSwitches {
			state := "off"
			if sw.On {
				state = "ON"
			}
			fmt.Fprintf(stdout, "[%.2fs %s] ", sw.At.Seconds(), state)
		}
		fmt.Fprintln(stdout)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := collector.WriteTrace(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "trace:       %s (%d spans, %d instants; open at ui.perfetto.dev)\n",
			*traceOut, len(collector.Spans()), len(collector.Instants()))
	}
	var rep *analyze.Report
	if *report {
		// Register the phase histograms before the summary prints so -stats
		// shows per-request phase latencies alongside the raw stage metrics.
		rep = analyze.FromCollector(collector, analyze.Options{})
		rep.RegisterMetrics(collector.Metrics(), analyze.AttributeAll(collector.Spans()))
	}
	if *stats {
		fmt.Fprintln(stdout)
		if err := collector.WriteSummary(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if rep != nil {
		fmt.Fprintln(stdout)
		if err := rep.RenderText(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !rep.Conserved() {
			fmt.Fprintf(stderr, "time attribution violates conservation (max residual %dns)\n",
				int64(rep.MaxResidual))
			return 1
		}
	}
	return 0
}

// buildConfig turns the cluster-shaping flags into the cluster and DualPar
// configs, for the single-workload and multi-tenant modes alike.
func buildConfig(f simFlags) (cluster.Config, core.Config, error) {
	ccfg := cluster.DefaultConfig()
	dcfg := core.DefaultConfig()
	ccfg.DataServers = f.servers
	ccfg.Seed = f.seed
	ccfg.PFS.Replicas = f.replicas
	ccfg.FS.Engine = f.engine
	if err := ccfg.Validate(); err != nil {
		return ccfg, dcfg, err
	}
	mk, err := iosched.ByName(f.sched)
	if err != nil {
		return ccfg, dcfg, err
	}
	ccfg.NewScheduler = mk
	if f.faults != "" {
		sch, err := fault.Parse(f.faults)
		if err != nil {
			return ccfg, dcfg, err
		}
		ccfg.Faults = sch
		core.ArmFaultWatchdogs(&ccfg, &dcfg)
	}
	if f.burst != "" {
		spec := f.burst
		if spec == "on" || spec == "default" {
			spec = ""
		}
		bc, err := burst.ParseSpec(spec)
		if err != nil {
			return ccfg, dcfg, err
		}
		ccfg.Burst = &bc
	}
	if f.tenants != "" {
		tc, err := tenant.ParseSpec(f.tenants)
		if err != nil {
			return ccfg, dcfg, err
		}
		tc.Seed = f.seed
		ccfg.Tenancy = &tc
		dcfg.SlotEvery = core.TenantSlot
	}
	if f.slot > 0 {
		dcfg.SlotEvery = f.slot
	}
	dcfg.Audit = f.audit
	return ccfg, dcfg, nil
}

// printFaults prints the fault summary line of a faulted run.
func printFaults(w io.Writer, cl *cluster.Cluster) {
	if sch := cl.Config().Faults; sch != nil {
		fmt.Fprintf(w, "faults:      %d windows, %d messages dropped, %d client retries, %d read failovers\n",
			len(sch.Windows), cl.Net.Drops(), cl.FS.Retries(), cl.FS.Failovers())
	}
}

// printWorkload prints a single-workload run's outcome: elapsed time,
// throughput, disk and network totals, and the fault, cache, burst and
// epoch lines that apply. workload and write are the flags that chose it.
func printWorkload(w io.Writer, cl *cluster.Cluster, pr *core.ProgramRun, workload string, write bool) {
	bytes := pr.Instr().TotalBytes()
	elapsed := pr.Elapsed()
	rwLabel := rw(write)
	switch workload {
	case "btio", "checkpoint", "ckpt-n1", "ckpt-nn":
		rwLabel = "write" // these model write phases regardless of -write
	case "s3asim":
		rwLabel = "read+write"
	}
	prog := pr.Prog()
	fmt.Fprintf(w, "workload:    %s (%d procs, %s)\n", prog.Name(), prog.Ranks(), rwLabel)
	fmt.Fprintf(w, "mode:        %s\n", pr.Mode())
	fmt.Fprintf(w, "elapsed:     %.3f s (simulated)\n", elapsed.Seconds())
	fmt.Fprintf(w, "volume:      %.1f MiB\n", float64(bytes)/(1<<20))
	fmt.Fprintf(w, "throughput:  %.1f MB/s\n", float64(bytes)/(1<<20)/elapsed.Seconds())
	st := cl.ServerStats()
	fmt.Fprintf(w, "disk:        %d accesses, %d seeks, avg seek %.0f sectors\n",
		st.Accesses, st.Seeks, st.AvgSeekDistance())
	fmt.Fprintf(w, "network:     %.1f MiB on the wire, %d messages\n",
		float64(cl.Net.BytesSent())/(1<<20), cl.Net.Messages())
	printFaults(w, cl)
	if c := pr.Cache(); c != nil {
		fmt.Fprintf(w, "cache:       %d gets, %d hits, %d evictions\n", c.Gets(), c.Hits(), c.Evictions())
	}
	if tier := cl.Burst(); tier != nil {
		s := tier.Stats()
		var meanLag time.Duration
		if s.DrainOps > 0 {
			meanLag = s.DrainLag / time.Duration(s.DrainOps)
		}
		fmt.Fprintf(w, "burst:       %.1f MiB absorbed, %.1f MiB drained, %.1f MiB replayed, %.1f MiB discarded, stall %.1f ms, mean drain lag %.1f ms\n",
			float64(s.Absorbed)/(1<<20), float64(s.Drained)/(1<<20),
			float64(s.Replayed)/(1<<20), float64(s.Discarded)/(1<<20),
			s.Stall.Seconds()*1e3, meanLag.Seconds()*1e3)
		if err := tier.Err(); err != nil {
			fmt.Fprintf(w, "burst error: %v\n", err)
		}
	}
	if pr.Crashed() {
		fmt.Fprintf(w, "crash:       client crash at %.2fs; last committed epoch %d\n",
			pr.EndedAt.Seconds(), pr.CommittedEpoch())
	} else if e := pr.CommittedEpoch(); e > 0 {
		fmt.Fprintf(w, "epochs:      %d committed\n", e)
	}
}

// printTenants prints a multi-tenant run's outcome: the seeded generator's
// full job schedule (see core.Runner.AddSchedule) as per-tenant job counts,
// grant/deny/revoke totals and elapsed-time percentiles.
func printTenants(w io.Writer, cl *cluster.Cluster, sched []tenant.Job, runs []*core.ProgramRun, finished bool) {
	tc := *cl.Config().Tenancy
	arb := cl.Arbiter()
	fmt.Fprintf(w, "tenancy:     %s\n", tc)
	fmt.Fprintf(w, "jobs:        %d across %d tenants", len(sched), tc.Tenants)
	if !finished {
		fmt.Fprintf(w, " (some unfinished at 24h budget)")
	}
	fmt.Fprintln(w)
	var makespan time.Duration
	fmt.Fprintln(w, "tenant  jobs  granted  denied  revoked  mean_ms    p99_ms")
	for t := 0; t < tc.Tenants; t++ {
		var els []time.Duration
		var sum time.Duration
		for i, pr := range runs {
			if pr == nil || sched[i].Tenant != t || !pr.Done {
				continue
			}
			els = append(els, pr.Elapsed())
			sum += pr.Elapsed()
			if pr.EndedAt > makespan {
				makespan = pr.EndedAt
			}
		}
		var mean, p99 time.Duration
		if len(els) > 0 {
			mean = sum / time.Duration(len(els))
			sort.Slice(els, func(i, k int) bool { return els[i] < els[k] })
			idx := int(math.Ceil(0.99*float64(len(els)))) - 1
			if idx < 0 {
				idx = 0
			}
			p99 = els[idx]
		}
		fmt.Fprintf(w, "%-6d  %-4d  %-7d  %-6d  %-7d  %-9.1f  %-9.1f\n",
			t, len(els), arb.Grants(t), arb.Denies(t), arb.Revokes(t),
			mean.Seconds()*1e3, p99.Seconds()*1e3)
	}
	fmt.Fprintf(w, "makespan:    %.3f s (simulated)\n", makespan.Seconds())
	printFaults(w, cl)
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

// buildWorkload builds the named workload with procs ranks over mb MiB.
func buildWorkload(name string, procs int, mb int64, write bool) (workloads.Program, error) {
	if procs < 1 {
		return nil, fmt.Errorf("-procs must be at least 1, got %d", procs)
	}
	if mb < 1 || mb > math.MaxInt64>>20 {
		return nil, fmt.Errorf("-mb must be in [1, %d], got %d", int64(math.MaxInt64>>20), mb)
	}
	bytes := mb << 20
	switch name {
	case "demo":
		d := workloads.DefaultDemo()
		d.Procs = procs
		d.FileBytes = bytes
		d.Write = write
		return d, nil
	case "mpi-io-test":
		m := workloads.DefaultMPIIOTest()
		m.Procs = procs
		m.FileBytes = bytes
		m.Write = write
		return m, nil
	case "hpio":
		h := workloads.DefaultHPIO()
		h.Procs = procs
		h.RegionCount = bytes / h.RegionBytes
		h.Write = write
		return h, nil
	case "ior-mpi-io":
		i := workloads.DefaultIOR()
		i.Procs = procs
		i.FileBytes = bytes
		i.Write = write
		return i, nil
	case "noncontig":
		n := workloads.DefaultNoncontig()
		n.Procs = procs
		n.FileBytes = bytes
		n.Write = write
		return n, nil
	case "btio":
		// BT-IO's canonical phase writes the solution array; -write is
		// implied. (Set Read in code to model the verification read-back.)
		b := workloads.DefaultBTIO()
		b.Procs = procs
		b.TotalBytes = bytes
		return b, nil
	case "s3asim":
		s := workloads.DefaultS3asim()
		s.Procs = procs
		return s, nil
	case "checkpoint":
		c := workloads.DefaultCheckpoint()
		c.Procs = procs
		c.Checkpoints = int(bytes / (int64(procs) * c.BlockBytes))
		if c.Checkpoints < 1 {
			c.Checkpoints = 1
		}
		return c, nil
	case "ckpt-n1", "ckpt-nn":
		// Epoch checkpointing with per-epoch seals (N-1 shared file or N-N
		// per-rank files); -mb sets the total volume across epochs.
		c := workloads.DefaultEpochCheckpoint(name == "ckpt-n1")
		c.Procs = procs
		epochs := int(bytes / (int64(procs) * c.BlockBytes))
		if epochs < 1 {
			epochs = 1
		}
		c.Epochs = epochs
		return c, nil
	case "depreader":
		d := workloads.DefaultDependentReader()
		d.Procs = procs
		d.FileBytes = bytes
		return d, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
