package harness

import (
	"strings"
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
)

// oracleRun executes a small replicated checkpoint run with integrity
// tracking armed and returns the cluster for verification.
func oracleRun(t *testing.T) *cluster.Cluster {
	t.Helper()
	prog := availProg(true)
	prog.Procs = 8
	prog.Checkpoints = 4
	ms, cl := Opts{Seed: 1}.executeAvail(time.Hour, 2, &fault.Schedule{},
		[]runSpec{{prog: prog, mode: core.ModeVanilla}})
	if !ms[0].finished {
		t.Fatal("oracle-run workload did not finish")
	}
	if err := ms[0].run.Err(); err != nil {
		t.Fatalf("clean run surfaced an I/O error: %v", err)
	}
	return cl
}

func TestVerifyIntegrityPassesCleanRun(t *testing.T) {
	cl := oracleRun(t)
	if err := VerifyIntegrity(cl); err != nil {
		t.Fatalf("oracle failed a clean quorum-replicated run: %v", err)
	}
}

func TestVerifyIntegrityCatchesCorruptedReplica(t *testing.T) {
	cl := oracleRun(t)
	// A clean read first: the corruption below must be the only difference.
	if err := VerifyIntegrity(cl); err != nil {
		t.Fatalf("pre-corruption verify: %v", err)
	}
	// Flip bits on the rank-0 replica of stripe 0 (server 0 local bytes
	// [0, 4k)). Reads prefer rank 0, so the oracle must hit the bad copy.
	cl.FS.Tracker().Corrupt(0, "checkpoint.dat", ext.Extent{Off: 0, Len: 4096})
	err := VerifyIntegrity(cl)
	if err == nil {
		t.Fatal("oracle passed a run with a corrupted replica")
	}
	if !strings.Contains(err.Error(), "read back v-1") {
		t.Fatalf("oracle error %q does not name the corrupted stamp", err)
	}
}

func TestDiffSegs(t *testing.T) {
	exp := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 100}, Ver: 3},
		{Ext: ext.Extent{Off: 200, Len: 50}, Ver: 7},
	}
	if msg := diffSegs(exp, exp); msg != "" {
		t.Fatalf("identical segs diff: %s", msg)
	}
	stale := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 100}, Ver: 3},
		{Ext: ext.Extent{Off: 200, Len: 50}, Ver: 6}, // replica missed v7
	}
	if msg := diffSegs(exp, stale); msg == "" {
		t.Fatal("stale replica stamp not flagged")
	}
	hole := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 40}, Ver: 3},
		{Ext: ext.Extent{Off: 40, Len: 60}}, // unwritten gap (Ver 0)
		{Ext: ext.Extent{Off: 200, Len: 50}, Ver: 7},
	}
	if msg := diffSegs(exp, hole); msg == "" {
		t.Fatal("unwritten hole in read-back not flagged")
	}
}
