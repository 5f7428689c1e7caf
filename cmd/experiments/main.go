// Command experiments regenerates every table and figure of the paper's
// evaluation. Results print as aligned tables; -out writes CSV files (and
// LBN trace series for the figure experiments) into a directory.
//
// Usage:
//
//	experiments [-run all|ID[,ID...]] [-quick] [-seed N] [-out DIR] [-q]
//	            [-parallel N] [-audit] [-report] [-engine extent|bptree|lsm]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// The IDs, and the order -run all prints them in, come from
// harness.Experiments (fig1a … table3, the ablate-* ablations, straggler,
// availability, checkpoint, multitenant, engines); an unknown ID prints the
// list and exits 2.
//
// Every flag that shapes the runs travels in one harness.Opts: -quick,
// -seed, -parallel, -engine (checked by fs.Config.Validate; a bad name
// exits 2), -audit (arm the invariant oracles on every run) and -report
// (a harness.ReportSink rendered after the tables; a run whose attribution
// does not conserve time exits 1).
//
// Sweeps run across GOMAXPROCS workers by default; -parallel 1 falls back to
// the serial path. Output tables are byte-identical either way (the sweep
// engine merges cells in canonical order); only stderr progress-line
// interleaving differs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dualpar/internal/fs"
	"dualpar/internal/harness"
	"dualpar/internal/metrics"
)

func main() {
	run := flag.String("run", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "reduced workload sizes (smoke test)")
	seed := flag.Int64("seed", 1, "simulation seed")
	out := flag.String("out", "", "directory for CSV outputs")
	quiet := flag.Bool("q", false, "suppress progress lines")
	parallel := flag.Int("parallel", 0, "max concurrent sweep cells (0 = GOMAXPROCS, 1 = serial)")
	audit := flag.Bool("audit", false, "arm the invariant oracles on every run (fail loudly with a reproducer artifact)")
	report := flag.Bool("report", false, "attach tracing to every run and print time-attribution reports after the tables")
	engine := flag.String("engine", "", "data-server storage engine: extent|bptree|lsm (default extent; the engines experiment sweeps all three regardless)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	fsCfg := fs.DefaultConfig()
	fsCfg.Engine = *engine
	if err := fsCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var log io.Writer = os.Stderr
	if *quiet {
		log = nil
	}
	opts := harness.Opts{Quick: *quick, Seed: *seed, Log: log, Parallel: *parallel,
		Engine: *engine, Audit: *audit}
	if *report {
		opts.Reports = &harness.ReportSink{}
	}

	var exps []harness.Experiment
	if *run == "all" {
		exps = harness.Experiments
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := lookup(id)
			if !ok {
				var known []string
				for _, e := range harness.Experiments {
					known = append(known, e.ID)
				}
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(known, " "))
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	// Experiments run through the sweep pool (whole experiments are
	// themselves independent cells); results print afterwards in request
	// order, so stdout is byte-identical at any parallelism.
	results := make([]*harness.Result, len(exps))
	cells := make([]harness.Cell, len(exps))
	for i, e := range exps {
		cells[i] = harness.Cell{Key: e.ID, Run: func() { results[i] = e.Run(opts) }}
	}
	if err := harness.RunCells(context.Background(), *parallel, cells); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		fmt.Printf("== %s ==\n", res.Title)
		for _, n := range res.Notes {
			fmt.Printf("   note: %s\n", n)
		}
		fmt.Println(res.Table.String())
		for _, s := range res.Series {
			fmt.Print(metrics.ASCIIChart(s, 72, 8))
		}
		if *out != "" {
			if err := writeResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if *report {
		// Reports drain sorted by run key, so this section is byte-identical
		// at any -parallel setting.
		if err := opts.Reports.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// lookup finds the experiment with the given ID in harness.Experiments.
func lookup(id string) (harness.Experiment, bool) {
	for _, e := range harness.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return harness.Experiment{}, false
}

func writeResult(dir string, res *harness.Result) error {
	f, err := os.Create(filepath.Join(dir, res.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Table.WriteCSVTable(f); err != nil {
		return err
	}
	if len(res.Series) > 0 {
		sf, err := os.Create(filepath.Join(dir, res.ID+"-series.csv"))
		if err != nil {
			return err
		}
		defer sf.Close()
		if err := metrics.WriteCSV(sf, res.Series...); err != nil {
			return err
		}
	}
	return nil
}
