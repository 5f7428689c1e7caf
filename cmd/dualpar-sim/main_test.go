package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from this run")

// invoke runs the command in-process and renders its outcome the way the
// goldens store it: stdout, then stderr under a marker when non-empty, then
// the exit code.
func invoke(args ...string) string {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var b bytes.Buffer
	b.Write(stdout.Bytes())
	if stderr.Len() > 0 {
		b.WriteString("--- stderr ---\n")
		b.Write(stderr.Bytes())
	}
	fmt.Fprintf(&b, "--- exit %d ---\n", code)
	return b.String()
}

// TestGolden pins the command's full output for one invocation of each
// mode: single workload, checkpoint through the burst log on replicas under
// a crash, multi-tenant with open and closed arrivals (with and without
// faults), and rejected configurations. Every case simulates well under a
// second.
func TestGolden(t *testing.T) {
	const poisson = "tenants:3,arrival=poisson:12,policy=fair,grants=2,jobs=8,ranks=2"
	for _, c := range []struct {
		name string
		args []string
	}{
		{"deadline_lsm", []string{"-workload", "mpi-io-test", "-procs", "16", "-mb", "8", "-sched", "deadline", "-engine", "lsm"}},
		{"ckpt_burst_replicas_crash", []string{"-workload", "ckpt-n1", "-procs", "16", "-mb", "8", "-burst", "on", "-replicas", "3", "-faults", "crash:2@20ms-300ms"}},
		{"tenants_poisson_audit", []string{"-tenants", poisson, "-audit"}},
		{"tenants_closed", []string{"-tenants", "tenants:2,arrival=closed:2x3,policy=fair,grants=2,ranks=2"}},
		{"tenants_faults", []string{"-tenants", poisson, "-replicas", "3", "-faults", "crash:2@0.05s-0.5s;disk:1*10@0s-1s", "-audit"}},
		{"bad_sched", []string{"-sched", "bogus"}},
		{"bad_engine", []string{"-engine", "bogus"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := invoke(c.args...)
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with go test ./cmd/dualpar-sim -update)", err)
			}
			if got != string(want) {
				t.Errorf("output drifted from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
			}
		})
	}
}

// TestTenantModeAppliesClusterFlags pins that multi-tenant mode builds its
// cluster through the same flags as single-workload mode: -servers and
// -sched change the outcome, the output flags add their output, and a bad
// cluster flag or tenancy spec is a configuration error (exit 2) in both
// modes.
func TestTenantModeAppliesClusterFlags(t *testing.T) {
	const spec = "tenants:2,arrival=closed:2x3,policy=fair,grants=2,ranks=2"
	base := invoke("-tenants", spec)
	trace := filepath.Join(t.TempDir(), "t.json")
	for _, flags := range [][]string{
		{"-servers", "2"}, {"-sched", "noop"},
		{"-trace", trace}, {"-stats"}, {"-report"}, {"-emclog"},
	} {
		if got := invoke(append([]string{"-tenants", spec}, flags...)...); got == base {
			t.Errorf("-tenants with %v printed the default cluster's output:\n%s", flags, got)
		}
	}
	if _, err := os.Stat(trace); err != nil {
		t.Errorf("-tenants with -trace wrote no trace: %v", err)
	}
	for _, args := range [][]string{
		{"-servers", "0"},
		{"-replicas", "10"},
		{"-tenants", spec, "-replicas", "10"},
		{"-tenants", spec, "-sched", "bogus"},
		{"-tenants", spec, "-engine", "bogus"},
		{"-tenants", spec, "-faults", "crash:"},
		{"-tenants", spec, "-burst", "cap=x"},
		{"-tenants", "tenants:x"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with only an error message",
				args, code, stdout.String(), stderr.String())
		}
	}
}
