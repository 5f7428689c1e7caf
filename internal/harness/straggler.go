package harness

import (
	"fmt"
	"time"

	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// stragglerProg is the sweep workload: the §II demo (interleaved small
// synchronous reads, pure I/O) — the access pattern where request
// reordering matters most, so a straggling server stresses both the disk
// path and EMC's seek-distance signal.
func stragglerProg(quick bool) workloads.Demo {
	d := workloads.DefaultDemo()
	calls := int64(48)
	if quick {
		calls = 12
	}
	d.FileBytes = calls * int64(d.Procs) * int64(d.SegsPerCall) * d.SegBytes
	return d
}

// Straggler sweeps the severity of a single degraded data server — its
// disk served at 1x (healthy), 2x, 5x, and 10x slower — and measures the
// end-to-end slowdown it inflicts on a vanilla run versus a DualPar
// (data-driven) run. Both runs carry the client and CRM retry watchdogs.
// The reproduction target: DualPar's batched, sorted list I/O keeps the
// healthy servers streaming and bounds the straggler's blast radius, so
// its slowdown curve stays well below vanilla's; and the run completes at
// every severity (liveness under degradation, not just performance).
func Straggler(o Opts) *Result {
	res := &Result{
		ID:    "straggler",
		Title: "Straggler tolerance: one data server degraded, demo workload",
		Table: &metrics.Table{Header: []string{
			"severity", "vanilla_s", "vanilla_slowdown", "dualpar_s", "dualpar_slowdown"}},
	}
	o = o.forSweep()
	severities := []float64{1, 2, 5, 10}
	if o.Quick {
		severities = []float64{1, 10}
	}
	prog := stragglerProg(o.Quick)
	res.note("one server's disk degraded for the whole run; fault layer + retry watchdogs on in every cell (severity 1 = healthy baseline)")

	// One cell per (severity, mode); DNF notes are collected per cell and
	// appended in canonical order after the sweep.
	type cellOut struct {
		elapsed time.Duration
		note    string
	}
	modes := []struct {
		label string
		mode  core.Mode
	}{{"vanilla", core.ModeVanilla}, {"dualpar", core.ModeDataDriven}}
	outs := make([]cellOut, len(severities)*len(modes))
	var cells []Cell
	for si, sev := range severities {
		for mi, m := range modes {
			slot := &outs[si*len(modes)+mi]
			cells = append(cells, Cell{
				Key: fmt.Sprintf("straggler/%gx/%s", sev, m.label),
				Run: func() {
					o.logf("straggler: severity %gx %s", sev, m.label)
					sch := &fault.Schedule{}
					if sev > 1 {
						sch.Windows = []fault.Window{
							{Kind: fault.DiskSlow, Target: 1, Factor: sev},
						}
					}
					ms, _ := o.executeFaults(time.Hour, core.DefaultConfig(), sch,
						[]runSpec{{prog: prog, mode: m.mode}})
					if !ms[0].finished {
						slot.note = fmt.Sprintf("severity %gx/%v DID NOT FINISH within the time budget", sev, m.mode)
						return
					}
					slot.elapsed = ms[0].elapsed
				},
			})
		}
	}
	runSweep(o, cells)
	for _, out := range outs {
		if out.note != "" {
			res.note("%s", out.note)
		}
	}
	var vanBase, ddBase time.Duration
	for si, sev := range severities {
		van := outs[si*len(modes)].elapsed
		dd := outs[si*len(modes)+1].elapsed
		if sev == 1 {
			vanBase, ddBase = van, dd
		}
		slow := func(t, base time.Duration) string {
			if base <= 0 || t <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", float64(t)/float64(base))
		}
		res.Table.AddRow(fmt.Sprintf("%gx", sev),
			secs(van), slow(van, vanBase), secs(dd), slow(dd, ddBase))
	}
	return res
}
