// Package harness reproduces the paper's evaluation: one driver per table
// and figure (§II and §V), each returning a Result with the regenerated
// rows/series next to the paper's reported values. Absolute numbers are not
// expected to match (the substrate is a simulator, the data sizes are
// scaled); the shapes — who wins, by roughly what factor, where crossovers
// fall — are the reproduction target.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/metrics"
	"dualpar/internal/mpiio"
	"dualpar/internal/obs"
	"dualpar/internal/workloads"
)

// Opts tunes an experiment run.
type Opts struct {
	// Quick shrinks workloads for smoke tests and benchmarks.
	Quick bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Seed for the simulation; runs are deterministic per seed.
	Seed int64
	// Parallel caps how many sweep cells run concurrently: 0 means
	// GOMAXPROCS, 1 reproduces the serial path exactly. Result tables are
	// byte-identical at every setting (see pool.go); only progress-log
	// interleaving differs.
	Parallel int
	// Ctx cancels a long sweep mid-flight (nil = never).
	Ctx context.Context
	// Engine is the fs storage engine every experiment cluster's data
	// servers use ("" = the extent default); see fs.Engines. The engines
	// experiment overrides it per cell.
	Engine string
	// Audit arms the invariant oracles on every run; a violated invariant
	// panics with the keyed error and its reproducer artifact path.
	Audit bool
	// Reports, when non-nil, attaches a collector to every run and stores
	// the analysis of where its simulated time went. Off (nil) by default:
	// tracing every cell of a sweep costs memory proportional to its span
	// count.
	Reports *ReportSink
}

func (o Opts) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Opts) parallel() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

func (o Opts) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Experiment is one entry of the experiment list.
type Experiment struct {
	// ID names the experiment on the command line and in CSV file names.
	ID  string
	run func(Opts) *Result
}

// Run executes the experiment and stamps its ID on the result.
func (e Experiment) Run(o Opts) *Result {
	res := e.run(o)
	res.ID = e.ID
	return res
}

// Experiments is every experiment in paper order: the §II and §V figures
// and tables, the ablations, then the beyond-paper experiments.
var Experiments = []Experiment{
	{"fig1a", Fig1a}, {"fig1b", Fig1b}, {"fig1cd", Fig1cd},
	{"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
	{"table2", Table2}, {"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8}, {"table3", Table3},

	{"ablate-sched", AblateScheduler}, {"ablate-t", AblateTImprovement},
	{"ablate-hole", AblateHoleThreshold}, {"ablate-chunk", AblateChunkSize},
	{"ablate-origins", AblateDiskOrigins}, {"ablate-cb", AblateCollectiveBuffer},
	{"ablate-ssd", AblateSSD}, {"ablate-writepath", AblateWritePath},
	{"ablate-s2window", AblateStrategy2Window}, {"ablate-servers", AblateServers},
	{"ablate-pipeline", AblatePipeline},

	{"straggler", Straggler}, {"availability", Availability},
	{"checkpoint", Checkpoint}, {"multitenant", Multitenant}, {"engines", Engines},
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment's list ID, set by Experiment.Run.
	ID    string
	Title string
	// Table holds the regenerated rows (most experiments).
	Table *metrics.Table
	// Series holds regenerated time series (Fig 1c/d, 6, 7).
	Series []*metrics.Series
	// Notes records scaling decisions and paper-reported reference values.
	Notes []string
}

// note appends a formatted note.
func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// clusterConfig is cluster.DefaultConfig with the run's seed and storage
// engine. Every experiment builds its cluster from here so Engine reaches
// all of them.
func (o Opts) clusterConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.seed()
	cfg.FS.Engine = o.Engine
	return cfg
}

// paperCluster builds the paper's platform: 9 data servers (two-disk RAID,
// CFQ), a metadata server, 8 compute nodes, GigE, PVFS2 with 64 KB stripes.
func (o Opts) paperCluster(trace bool) *cluster.Cluster {
	cfg := o.clusterConfig()
	cfg.TraceServers = trace
	return cluster.New(cfg)
}

// runSpec describes one program inside a measurement run.
type runSpec struct {
	prog    workloads.Program
	mode    core.Mode
	nodeOff int // FirstNodeIndex
	startAt time.Duration
	mpiio   mpiio.Config
}

// measured captures one program's outcome.
type measured struct {
	elapsed  time.Duration
	bytes    int64
	ioTime   time.Duration
	finished bool
	run      *core.ProgramRun
}

// throughputMBs is the program's own data volume over its elapsed time.
func (m measured) throughputMBs() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return float64(m.bytes) / (1 << 20) / m.elapsed.Seconds()
}

// execute runs the given programs together on a fresh cluster and returns
// per-program measurements (in spec order) plus the cluster for stats.
func (o Opts) execute(trace bool, maxTime time.Duration, ddCfg core.Config, specs []runSpec) ([]measured, *cluster.Cluster) {
	return o.executeOn(o.paperCluster(trace), maxTime, ddCfg, specs)
}

// executeFaults is execute with a fault schedule threaded through the
// cluster and the retry watchdogs armed at both layers.
func (o Opts) executeFaults(maxTime time.Duration, ddCfg core.Config, sch *fault.Schedule, specs []runSpec) ([]measured, *cluster.Cluster) {
	cfg := o.clusterConfig()
	cfg.Faults = sch
	core.ArmFaultWatchdogs(&cfg, &ddCfg)
	return o.executeOn(cluster.New(cfg), maxTime, ddCfg, specs)
}

// executeOn runs specs on cl through runOn and measures each program.
func (o Opts) executeOn(cl *cluster.Cluster, maxTime time.Duration, ddCfg core.Config, specs []runSpec) ([]measured, *cluster.Cluster) {
	var desc strings.Builder
	for _, sp := range specs {
		fmt.Fprintf(&desc, "|%s/%s/r%d/off%d/at%s",
			sp.prog.Name(), sp.mode, sp.prog.Ranks(), sp.nodeOff, sp.startAt)
	}
	runs := make([]*core.ProgramRun, len(specs))
	o.runOn(cl, maxTime, ddCfg, desc.String(), func(r *core.Runner) {
		for i, sp := range specs {
			runs[i] = r.Add(sp.prog, sp.mode, core.AddOptions{
				RanksPerNode:   8,
				FirstNodeIndex: sp.nodeOff,
				StartAt:        sp.startAt,
				MPIIO:          sp.mpiio,
			})
		}
	})
	out := make([]measured, len(specs))
	for i, pr := range runs {
		var io time.Duration
		for rnk := range pr.Instr().Ranks {
			io += pr.Instr().Ranks[rnk].IOTime
		}
		out[i] = measured{
			elapsed:  pr.Elapsed(),
			bytes:    pr.Instr().TotalBytes(),
			ioTime:   io,
			finished: pr.Done,
			run:      pr,
		}
	}
	return out, cl
}

// runOn is the run path every experiment run takes. It arms the audit
// oracles when Opts.Audit is set and a report collector when Opts.Reports
// is, lets add place the programs on a fresh runner, runs it to maxTime,
// panics on a violated invariant, and records the run's report under a key
// built from desc (see reportKey). It reports whether every program
// finished.
func (o Opts) runOn(cl *cluster.Cluster, maxTime time.Duration, ddCfg core.Config, desc string, add func(*core.Runner)) bool {
	if o.Audit {
		ddCfg.Audit = true
	}
	var reportCol *obs.Collector
	if o.Reports != nil && cl.Obs() == nil {
		reportCol = obs.NewCollector()
		cl.EnableObs(reportCol)
	}
	r := core.NewRunner(cl, ddCfg)
	add(r)
	finished := r.Run(maxTime)
	if err := r.AuditErr(); err != nil {
		panic(err)
	}
	if reportCol != nil {
		o.Reports.record(reportKey(cl, desc, reportCol), reportCol)
	}
	return finished
}

// aggThroughputMBs is the combined volume of all programs over the time to
// finish them all (the paper's "system I/O throughput" for concurrent
// runs).
func aggThroughputMBs(ms []measured) float64 {
	var bytes int64
	var last time.Duration
	for _, m := range ms {
		bytes += m.bytes
		if m.elapsed > last {
			last = m.elapsed
		}
	}
	if last <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / last.Seconds()
}

// mb formats a throughput cell.
func mb(v float64) string { return fmt.Sprintf("%.1f", v) }

// secs formats a duration cell.
func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// scheme is one labelled execution mode under comparison.
type scheme struct {
	label string
	mode  core.Mode
}

// modes under comparison in most experiments.
var threeSchemes = []scheme{
	{"vanilla", core.ModeVanilla},
	{"collective", core.ModeCollective},
	{"dualpar", core.ModeDataDriven},
}

// vanillaDualPar is threeSchemes without collective I/O.
var vanillaDualPar = []scheme{threeSchemes[0], threeSchemes[2]}

// schemeSweep runs one cell per row of rowKeys under each of threeSchemes
// and returns each row's cell values in scheme order. run gets the row's
// index; cell keys are "<rowKey>/<scheme label>".
func schemeSweep(o Opts, rowKeys []string, run func(o Opts, row int, sch scheme) string) [][]string {
	n := len(threeSchemes)
	var keys []string
	for _, rk := range rowKeys {
		for _, sch := range threeSchemes {
			keys = append(keys, rk+"/"+sch.label)
		}
	}
	vals := sweep(o, keys, func(o Opts, i int) string { return run(o, i/n, threeSchemes[i%n]) })
	rows := make([][]string, len(rowKeys))
	for r := range rows {
		rows[r] = vals[r*n : (r+1)*n]
	}
	return rows
}

// readWrite is the direction axis of the read/write sweeps.
var readWrite = []struct {
	label string
	write bool
}{{"read", false}, {"write", true}}

// tableRow is one sweep cell's table row plus the notes it raised.
type tableRow struct {
	row   []string
	notes []string
}

// addRows appends each cell's notes, then its row, in cell order.
func (r *Result) addRows(rows []tableRow) {
	for _, tr := range rows {
		r.Notes = append(r.Notes, tr.notes...)
		r.Table.AddRow(tr.row...)
	}
}
