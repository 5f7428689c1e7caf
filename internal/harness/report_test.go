package harness

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig1aReports runs the quick fig1a sweep with run-level attribution armed
// and renders the drained reports the way cmd/experiments prints them.
func fig1aReports(t *testing.T, parallel int) string {
	t.Helper()
	sink := &ReportSink{}
	Fig1a(Opts{Quick: true, Seed: 1, Parallel: parallel, Log: io.Discard, Reports: sink})
	return renderReports(t, sink)
}

// renderReports renders sink the way cmd/experiments prints it, failing
// the test when a run does not conserve time or nothing was recorded.
func renderReports(t *testing.T, sink *ReportSink) string {
	t.Helper()
	var b strings.Builder
	if err := sink.Render(&b); err != nil {
		t.Error(err)
	}
	if b.Len() == 0 {
		t.Fatal("no reports drained")
	}
	return b.String()
}

// TestReportGoldenAndParallel pins the quick fig1a attribution reports to a
// golden file and demands byte-identical rendering from a four-worker sweep:
// the report pipeline inherits the sweep engine's determinism contract.
func TestReportGoldenAndParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fig1a quick sweep twice with tracing on; skipped with -short")
	}
	serial := fig1aReports(t, 1)
	par := fig1aReports(t, 4)
	if serial != par {
		t.Errorf("parallel(4) reports differ from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
	path := filepath.Join("testdata", "fig1a_report_quick.golden")
	if *update {
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/harness -run ReportGolden -update)", err)
	}
	if serial != string(want) {
		t.Errorf("reports drifted from %s:\n--- want ---\n%s\n--- got ---\n%s\n(if intended, rerun with -update)",
			path, want, serial)
	}
}

// TestMultitenantReports pins that -report reaches the shared-cluster
// cells: the quick sweep records one report per tenant mix as well as one
// per solo baseline, each conserving time, and tracing leaves the table as
// the golden has it.
func TestMultitenantReports(t *testing.T) {
	if testing.Short() {
		t.Skip("traces the quick multitenant sweep; skipped with -short")
	}
	sink := &ReportSink{}
	got := renderResult(Multitenant(Opts{Quick: true, Parallel: 1, Log: io.Discard, Reports: sink}))
	want, err := os.ReadFile(filepath.Join("testdata", "multitenant_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("tracing changed the table:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	reports := sink.Drain()
	mixes := 0
	for _, rr := range reports {
		if !rr.Report.Conserved() {
			t.Errorf("run %s: attribution not conserved (residual %v)", rr.Key, rr.Report.MaxResidual)
		}
		if strings.Contains(rr.Key, "|tenancy=") {
			mixes++
		}
	}
	if len(reports) != 16 || mixes != 10 {
		t.Errorf("%d reports, %d of them tenant mixes; want 16: the 10 shared-cluster cells and 6 solo baselines",
			len(reports), mixes)
	}
}
