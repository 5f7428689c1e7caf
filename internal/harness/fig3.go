package harness

import (
	"time"

	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// fig3Sizes returns the scaled data volumes for the single-application
// comparison (paper: mpi-io-test 2 GB / 16 KB, noncontig vector columns,
// ior-mpi-io 16 GB / 32 KB; all with 64 processes).
func fig3Sizes(quick bool) (mpiio, noncontig, ior int64) {
	if quick {
		return 16 << 20, 16 << 20, 16 << 20
	}
	return 128 << 20, 96 << 20, 128 << 20
}

// fig3Program builds one of the three workloads in read or write mode.
func fig3Program(name string, write bool, quick bool) workloads.Program {
	szM, szN, szI := fig3Sizes(quick)
	switch name {
	case "mpi-io-test":
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = szM
		m.Write = write
		return m
	case "noncontig":
		n := workloads.DefaultNoncontig()
		n.FileBytes = szN
		n.Write = write
		return n
	case "ior-mpi-io":
		i := workloads.DefaultIOR()
		i.FileBytes = szI
		i.Write = write
		return i
	}
	panic("unknown fig3 program " + name)
}

// Fig3 regenerates Figure 3: system I/O throughput of a single program
// under vanilla MPI-IO, collective I/O, and DualPar, for reads (a) and
// writes (b).
func Fig3(o Opts) *Result {
	res := &Result{
		Title: "Fig 3: single-application system I/O throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"program", "rw", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper (read MB/s): mpi-io-test 115/117/263, noncontig 155/248/390, ior-mpi-io ~170/~150/~390")
	res.note("paper (write): DualPar +35%% over vanilla on ior-mpi-io; roughly 2x on mpi-io-test")
	res.note("files scaled from 2-16 GB to 96-128 MB; shapes, not absolutes, are the target")
	names := []string{"mpi-io-test", "noncontig", "ior-mpi-io"}
	// Row r is readWrite[r/3] x names[r%3].
	var rowKeys []string
	for _, rw := range readWrite {
		for _, name := range names {
			rowKeys = append(rowKeys, "fig3/"+rw.label+"/"+name)
		}
	}
	rows := schemeSweep(o, rowKeys, func(o Opts, r int, sch scheme) string {
		rw, name := readWrite[r/len(names)], names[r%len(names)]
		ms, _ := o.execute(false, 4*time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: fig3Program(name, rw.write, o.Quick), mode: sch.mode}})
		o.logf("fig3 %s %s %s: %.1f MB/s (%.2fs)", name, rw.label, sch.label,
			ms[0].throughputMBs(), ms[0].elapsed.Seconds())
		return mb(ms[0].throughputMBs())
	})
	for r, vals := range rows {
		rw, name := readWrite[r/len(names)], names[r%len(names)]
		res.Table.AddRow(append([]string{name, rw.label}, vals...)...)
	}
	return res
}
