package core

import (
	"fmt"
	"time"

	"dualpar/internal/sim"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

// TenantSlot is the EMC sampling slot for tenant job mixes: tiny jobs live
// for seconds, so a sub-second slot gives a denied job several grant
// retries within its lifetime.
const TenantSlot = 250 * time.Millisecond

// TenantDemo maps a generated job onto a concrete program: a small
// interleaved-access Demo of ranks processes whose size class sets the
// file length (96, 192 or 384 KB, times scale). Ranks interleave 4 KB
// segments, so vanilla execution issues strided reads while a granted
// data-driven run fetches the file as one sorted batch — the grant is worth
// something, which is what the arbiter polices.
func TenantDemo(j tenant.Job, ranks int, scale int64) workloads.Demo {
	d := workloads.DefaultDemo()
	d.Procs = ranks
	d.SegBytes = 4 << 10
	d.SegsPerCall = 4
	d.FileName = fmt.Sprintf("t%dj%d.dat", j.Tenant, j.Index)
	switch j.Class {
	case "s":
		d.FileBytes = 96 << 10
	case "m":
		d.FileBytes = 192 << 10
	default:
		d.FileBytes = 384 << 10
	}
	d.FileBytes *= scale
	return d
}

// JobMode maps the generator's mode name onto an execution mode.
// Data-driven jobs are pinned (ModeDataDriven): they request a grant at
// submission and, when denied, run conventionally while the EMC retries
// every slot.
func JobMode(name string) Mode {
	if name == "dualpar" {
		return ModeDataDriven
	}
	return ModeVanilla
}

// AddSchedule drives the generated job schedule of the runner's tenanted
// cluster (tenant.Schedule of its Tenancy config), each job a TenantDemo of
// the given scale on its own compute node. Open-loop kinds (poisson, burst)
// are submitted at their scheduled times by a single arrival proc; the
// closed-loop kind spawns one proc per (tenant, worker) that blocks on each
// job's completion and sleeps the think time before submitting the next.
// Everything runs in simulation context once Run starts, so the run is
// deterministic per seed. It returns the schedule and one slot per job,
// filled when the job is submitted (nil if the run ended first).
func (r *Runner) AddSchedule(scale int64) ([]tenant.Job, []*ProgramRun) {
	ccfg := r.cl.Config()
	tc := *ccfg.Tenancy
	sched := tenant.Schedule(tc)
	runs := make([]*ProgramRun, len(sched))
	addJob := func(p *sim.Proc, i int, onDone func()) {
		j := sched[i]
		runs[i] = r.Add(TenantDemo(j, tc.Ranks, scale), JobMode(j.Mode), AddOptions{
			RanksPerNode:   tc.Ranks, // each job owns one compute node
			FirstNodeIndex: i % ccfg.ComputeNodes,
			StartAt:        p.Now(),
			Tenant:         j.Tenant,
			OnDone:         onDone,
		})
	}
	k := r.cl.K
	if tc.Arrival.Kind != tenant.ArrivalClosed {
		k.Spawn("tenant/arrivals", func(p *sim.Proc) {
			for i := range sched {
				if at := sched[i].At; at > p.Now() {
					p.Sleep(at - p.Now())
				}
				addJob(p, i, nil)
			}
		})
		return sched, runs
	}
	// Group schedule indices per (tenant, worker) preserving order.
	byWorker := make(map[[2]int][]int)
	for i, j := range sched {
		key := [2]int{j.Tenant, j.Worker}
		byWorker[key] = append(byWorker[key], i)
	}
	for t := 0; t < tc.Tenants; t++ {
		for w := 0; w < tc.Arrival.Workers; w++ {
			idxs := byWorker[[2]int{t, w}]
			k.Spawn(fmt.Sprintf("tenant%d/worker%d", t, w), func(p *sim.Proc) {
				for _, i := range idxs {
					sig := k.NewSignal()
					done := false
					addJob(p, i, func() { done = true; sig.Broadcast() })
					for !done {
						sig.Wait(p)
					}
					if tc.Arrival.Think > 0 {
						p.Sleep(tc.Arrival.Think)
					}
				}
			})
		}
	}
	return sched, runs
}
