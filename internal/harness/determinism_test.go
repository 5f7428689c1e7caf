package harness

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dualpar/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files from this run")

// renderResult flattens a Result to the text the experiments command
// prints: title, notes, table, and charts. Byte equality of this rendering
// is the determinism contract the sweep pool guarantees.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", res.Title)
	for _, n := range res.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	if res.Table != nil {
		b.WriteString(res.Table.String())
	}
	for _, s := range res.Series {
		b.WriteString(metrics.ASCIIChart(s, 72, 8))
	}
	return b.String()
}

// paperSuite runs the paper's eleven figures and tables — the experiment
// list's fig* and table* entries — as one sweep, so under Parallel != 1
// the experiments run concurrently as well as their cells.
func paperSuite(t *testing.T, o Opts) []*Result {
	t.Helper()
	var paper []Experiment
	var keys []string
	for _, e := range Experiments {
		if strings.HasPrefix(e.ID, "fig") || strings.HasPrefix(e.ID, "table") {
			paper = append(paper, e)
			keys = append(keys, "all/"+e.ID)
		}
	}
	if len(paper) != 11 {
		t.Fatalf("experiment list holds %d paper experiments, want 11", len(paper))
	}
	return sweep(o, keys, func(o Opts, i int) *Result { return paper[i].Run(o) })
}

// TestAllParallelMatchesSerial is the determinism golden test for the
// sweep engine: every paper experiment run with four workers must render
// byte-identically to the serial path. ~2x the quick suite, so skipped
// under -short.
func TestAllParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice; skipped with -short")
	}
	serial := paperSuite(t, Opts{Quick: true, Parallel: 1, Log: io.Discard})
	par := paperSuite(t, Opts{Quick: true, Parallel: 4, Log: io.Discard})
	if len(serial) != len(par) {
		t.Fatalf("result counts differ: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if got, want := renderResult(par[i]), renderResult(serial[i]); got != want {
			t.Errorf("%s: parallel(4) output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].ID, want, got)
		}
	}
}

// TestFaultSweepsParallelMatchSerial covers the two fault-injection
// experiments the paper suite does not include: stragglers and crash-stop
// availability, both sweeping cells with DNF-note side channels.
func TestFaultSweepsParallelMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault sweeps; skipped with -short")
	}
	for _, d := range []struct {
		name string
		fn   func(Opts) *Result
	}{
		{"straggler", Straggler},
		{"availability", Availability},
	} {
		t.Run(d.name, func(t *testing.T) {
			serial := renderResult(d.fn(Opts{Quick: true, Parallel: 1, Log: io.Discard}))
			par := renderResult(d.fn(Opts{Quick: true, Parallel: 4, Log: io.Discard}))
			if par != serial {
				t.Errorf("parallel(4) output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, par)
			}
		})
	}
}

// TestGoldenTables pins the quick-mode rendering of two representative
// experiments to checked-in golden files, so any change to simulated
// results (or to table formatting) must be made consciously via -update.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("sub-second sims but not free; skipped with -short")
	}
	for _, d := range []struct {
		name string
		fn   func(Opts) *Result
	}{
		{"fig1a", Fig1a},
		{"fig3", Fig3},
	} {
		t.Run(d.name, func(t *testing.T) {
			got := renderResult(d.fn(Opts{Quick: true, Parallel: 1, Log: io.Discard}))
			path := filepath.Join("testdata", d.name+"_quick.golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with go test ./internal/harness -run Golden -update)", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s\n(if intended, rerun with -update)",
					path, want, got)
			}
		})
	}
}

// TestOptsIsolation runs one experiment concurrently under different Opts
// and demands each render equal its serial render. The engine, audit and
// report settings travel per call, so a run beside another with a different
// engine, or with the oracles and a report sink armed, must not see them.
// The lsm render must differ from the default one: that is what shows
// Engine reaches the cluster.
func TestOptsIsolation(t *testing.T) {
	variants := []func() Opts{
		func() Opts { return Opts{Quick: true, Parallel: 1, Log: io.Discard} },
		func() Opts { return Opts{Quick: true, Parallel: 1, Log: io.Discard, Engine: "lsm"} },
		func() Opts {
			return Opts{Quick: true, Parallel: 1, Log: io.Discard, Audit: true, Reports: &ReportSink{}}
		},
	}
	// run executes every variant, one after another or all at once, and
	// renders the results on the test goroutine.
	run := func(concurrent bool) []string {
		opts := make([]Opts, len(variants))
		results := make([]*Result, len(variants))
		var wg sync.WaitGroup
		for i, v := range variants {
			opts[i] = v()
			if !concurrent {
				results[i] = Availability(opts[i])
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = Availability(opts[i])
			}()
		}
		wg.Wait()
		out := make([]string, len(variants))
		for i, res := range results {
			out[i] = renderResult(res)
			if opts[i].Reports != nil {
				out[i] += renderReports(t, opts[i].Reports)
			}
		}
		return out
	}
	serial := run(false)
	if serial[1] == serial[0] {
		t.Fatalf("Engine: \"lsm\" rendered the default engine's table:\n%s", serial[0])
	}
	if !strings.HasPrefix(serial[2], serial[0]) {
		t.Fatalf("audit/report run changed the table:\n--- default ---\n%s\n--- audit+report ---\n%s",
			serial[0], serial[2])
	}
	conc := run(true)
	for i := range variants {
		if conc[i] != serial[i] {
			t.Errorf("variant %d run concurrently differs from its serial run:\n--- serial ---\n%s\n--- concurrent ---\n%s",
				i, serial[i], conc[i])
		}
	}
}
