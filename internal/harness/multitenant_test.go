package harness

import (
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

// TestFairImprovesWorstTenantP99 pins the experiment's headline claim: in
// the hot-flood sweep cell (one tenant floods the cluster at six times the
// cold tenants' Poisson rate), the fair policy's work-conserving
// reservations leave the worst tenant's p99 stretch strictly better than
// FCFS, where the flood re-steals every freed grant at submission and
// drags every tenant to the hot tenant's tail.
func TestFairImprovesWorstTenantP99(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-hundred-job shared-cluster runs; skipped with -short")
	}
	o := Opts{Seed: 1, Quick: true}
	base := o.soloBaselines(2)
	run := func(policy string) mixStats {
		tc, err := tenant.ParseSpec(
			"tenants:4,arrival=poisson:12,policy=" + policy +
				",grants=12,cache=64M,jobs=40,ranks=2,hot=0x6")
		if err != nil {
			t.Fatal(err)
		}
		tc.Seed = 1
		out := o.runTenantMix(tc)
		if !out.finished {
			t.Fatalf("%s cell did not finish in budget", policy)
		}
		return summarize(out, base, tc.Tenants)
	}
	fcfs, fair := run("fcfs"), run("fair")
	if fair.worstP99 >= fcfs.worstP99 {
		t.Fatalf("fair worst-tenant p99 %.2f not better than fcfs %.2f",
			fair.worstP99, fcfs.worstP99)
	}
	// The improvement must be substantial, not makespan noise.
	if fair.worstP99 > 0.95*fcfs.worstP99 {
		t.Errorf("fair worst-tenant p99 %.2f improves fcfs %.2f by under 5%%",
			fair.worstP99, fcfs.worstP99)
	}
}

// TestMultitenantQuickConcurrency pins the scale contract: the quick
// sweep's biggest cell runs at least 500 simultaneously active jobs on the
// shared cluster.
func TestMultitenantQuickConcurrency(t *testing.T) {
	if testing.Short() {
		t.Skip("750-job shared-cluster run; skipped with -short")
	}
	o := Opts{Seed: 1, Quick: true}
	base := o.soloBaselines(2)
	tc, err := tenant.ParseSpec(multitenantSpecs(true)[0])
	if err != nil {
		t.Fatal(err)
	}
	tc.Seed = 1
	st := summarize(o.runTenantMix(tc), base, tc.Tenants)
	if st.peak < 500 {
		t.Fatalf("peak concurrency %d, want >= 500", st.peak)
	}
}

// TestSingleTenantMatchesUntenanted is the tenancy-off regression: a
// cluster configured with the default single-tenant tenancy (one tenant,
// fcfs, unbounded grants, no cache partition) must produce byte-identical
// measurements to an untenanted cluster — the arbiter must be a pure
// pass-through until a bound or partition is configured.
func TestSingleTenantMatchesUntenanted(t *testing.T) {
	specs := func() []runSpec {
		var out []runSpec
		for i, mode := range []core.Mode{core.ModeDataDriven, core.ModeVanilla, core.ModeDualPar} {
			d := workloads.DefaultDemo()
			d.Procs = 2
			d.SegBytes = 4 << 10
			d.SegsPerCall = 4
			d.FileBytes = 96 << 10
			d.FileName = "st.dat"
			out = append(out, runSpec{prog: d, mode: mode, nodeOff: i})
		}
		return out
	}
	ddCfg := core.DefaultConfig()
	ddCfg.SlotEvery = 250 * time.Millisecond

	o := Opts{Seed: 7}
	plain, _ := o.execute(false, time.Hour, ddCfg, specs())

	cfg := cluster.DefaultConfig()
	cfg.Seed = 7
	tc := tenant.DefaultConfig()
	cfg.Tenancy = &tc
	tenanted, cl := o.executeOn(cluster.New(cfg), time.Hour, ddCfg, specs())

	if cl.Arbiter() == nil {
		t.Fatal("tenanted cluster has no arbiter")
	}
	for i := range plain {
		if plain[i].elapsed != tenanted[i].elapsed || plain[i].bytes != tenanted[i].bytes {
			t.Errorf("spec %d: untenanted (%v, %d bytes) != single-tenant default (%v, %d bytes)",
				i, plain[i].elapsed, plain[i].bytes, tenanted[i].elapsed, tenanted[i].bytes)
		}
	}
	if d := cl.Arbiter().Denies(0); d != 0 {
		t.Errorf("unbounded single-tenant arbiter denied %d grants", d)
	}
}
