package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// Fig4 regenerates Figure 4: three concurrent BTIO instances, system I/O
// throughput as process parallelism grows (16, 64, 256), under the three
// schemes.
func Fig4(o Opts) *Result {
	res := &Result{
		Title: "Fig 4: 3 concurrent BTIO instances, system throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"procs", "req_bytes", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper: collective and DualPar beat vanilla by up to 24x and 35x; collective's edge shrinks as procs grow; DualPar scales better")
	procsList := []int{16, 64, 256}
	total := int64(6 << 20)
	steps := 2
	if o.Quick {
		procsList = []int{16, 64}
		total = 2 << 20
	}
	btio := func(procs int) workloads.BTIO {
		b := workloads.DefaultBTIO()
		b.Procs = procs
		b.TotalBytes = total
		b.Steps = steps
		b.StepCompute = 20 * time.Millisecond
		return b
	}
	rowKeys := make([]string, len(procsList))
	for i, procs := range procsList {
		rowKeys[i] = fmt.Sprintf("fig4/procs=%d", procs)
	}
	rows := schemeSweep(o, rowKeys, func(o Opts, r int, sch scheme) string {
		specs := make([]runSpec, 3)
		for k := range specs {
			inst := btio(procsList[r])
			inst.FileName = fmt.Sprintf("btio-%d.dat", k)
			specs[k] = runSpec{prog: inst, mode: sch.mode}
		}
		ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(), specs)
		o.logf("fig4 procs=%d %s: %.2f MB/s", procsList[r], sch.label, aggThroughputMBs(ms))
		return mb(aggThroughputMBs(ms))
	})
	for r, procs := range procsList {
		row := []string{fmt.Sprintf("%d", procs), fmt.Sprintf("%d", btio(procs).BlockBytes())}
		res.Table.AddRow(append(row, rows[r]...)...)
	}
	return res
}

// Fig5 regenerates Figure 5: three concurrent S3asim instances, total I/O
// time as the query count grows.
func Fig5(o Opts) *Result {
	res := &Result{
		Title: "Fig 5: 3 concurrent S3asim instances, I/O time (s)",
		Table: &metrics.Table{Header: []string{"queries", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper: DualPar's I/O times are up to 25%% and on average 17%% below the other schemes (requests are larger, so gains are modest)")
	queries := []int{16, 24, 32}
	if o.Quick {
		queries = []int{16}
	}
	rowKeys := make([]string, len(queries))
	for i, q := range queries {
		rowKeys[i] = fmt.Sprintf("fig5/q=%d", q)
	}
	rows := schemeSweep(o, rowKeys, func(o Opts, r int, sch scheme) string {
		q := queries[r]
		s := workloads.DefaultS3asim()
		s.Procs = 16
		s.Queries = q
		if o.Quick {
			s.FragmentBytes = 1 << 20
		}
		mode := sch.mode
		if mode == core.ModeCollective {
			// S3asim's per-rank call counts are irregular; its original
			// implementation uses independent I/O inside collective
			// phases. Model "collective IO" as list-I/O batching.
			mode = core.ModeVanilla
		}
		specs := make([]runSpec, 3)
		for k := range specs {
			inst := s
			inst.DBName = fmt.Sprintf("s3db-%d.dat", k)
			inst.OutName = fmt.Sprintf("s3out-%d.dat", k)
			specs[k] = runSpec{prog: inst, mode: mode}
			specs[k].mpiio.ListIO = sch.mode == core.ModeCollective
		}
		ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(), specs)
		var io time.Duration
		for _, m := range ms {
			io += m.ioTime
		}
		perRank := io / time.Duration(len(ms)*s.Procs)
		o.logf("fig5 q=%d %s: %.2fs avg I/O per rank", q, sch.label, perRank.Seconds())
		return secs(perRank)
	})
	for r, q := range queries {
		res.Table.AddRow(append([]string{fmt.Sprintf("%d", q)}, rows[r]...)...)
	}
	return res
}

// Table2 regenerates Table II: two concurrent mpi-io-test instances,
// aggregate read and write throughput.
func Table2(o Opts) *Result {
	res := &Result{
		Title: "Table II: 2 concurrent mpi-io-test instances, aggregate throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"rw", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper: read 106?/168/284 MB/s; write 54/67/127 MB/s; DualPar cuts the average seek distance by up to 10x")
	rows := schemeSweep(o, []string{"table2/read", "table2/write"}, func(o Opts, r int, sch scheme) string {
		rw := readWrite[r]
		ms, _ := table2Run(o, rw.write, sch.mode, false)
		o.logf("table2 %s %s: %.1f MB/s", rw.label, sch.label, aggThroughputMBs(ms))
		return mb(aggThroughputMBs(ms))
	})
	for r, rw := range readWrite {
		res.Table.AddRow(append([]string{rw.label}, rows[r]...)...)
	}
	return res
}

// table2Run executes the two-instance mpi-io-test scenario.
func table2Run(o Opts, write bool, mode core.Mode, trace bool) ([]measured, *cluster.Cluster) {
	size := int64(96 << 20)
	if o.Quick {
		size = 16 << 20
	}
	mk := func(i int) workloads.MPIIOTest {
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = size
		m.Write = write
		m.FileName = fmt.Sprintf("mpiio-%d.dat", i)
		return m
	}
	return o.execute(trace, 12*time.Hour, core.DefaultConfig(), []runSpec{
		{prog: mk(0), mode: mode},
		{prog: mk(1), mode: mode},
	})
}

// Fig6 regenerates Figure 6: the LBN access order on data server 1 during
// the two-instance mpi-io-test read, vanilla vs DualPar, plus the aggregate
// seek reduction.
func Fig6(o Opts) *Result {
	res := &Result{
		Title: "Fig 6: disk access order, 2x mpi-io-test, vanilla vs DualPar",
		Table: &metrics.Table{Header: []string{"scheme", "accesses", "monotonicity", "mean_seek_sectors"}},
	}
	res.note("paper: vanilla hops between the two files' regions; DualPar reduces average seek distance by up to 10x")
	res.addLBN(sweep(o, []string{"fig6/vanilla", "fig6/dualpar"}, func(o Opts, i int) lbnSample {
		sch := vanillaDualPar[i]
		ms, cl := table2Run(o, false, sch.mode, true)
		// Sample a one-second (or one-third-of-run) window mid-run, like the
		// paper's randomly selected second.
		longest := max(ms[0].elapsed, ms[1].elapsed)
		from := longest / 3
		out := sampleLBN(cl, sch.label, from, from+min(time.Second, longest/3))
		o.logf("fig6 %s: %s accesses, mean seek %s sectors", sch.label, out.row[1], out.row[3])
		return out
	}))
	return res
}
