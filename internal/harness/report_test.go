package harness

import (
	"fmt"
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

// renderReports drains sink and renders its reports the way
// cmd/experiments prints them, checking each conserves time.
func renderReports(t *testing.T, sink *ReportSink) string {
	t.Helper()
	var b strings.Builder
	reports := sink.Drain()
	if len(reports) == 0 {
		t.Fatal("no reports drained")
	}
	for _, rr := range reports {
		if !rr.Report.Conserved() {
			t.Errorf("run %s: attribution not conserved (residual %v)", rr.Key, rr.Report.MaxResidual)
		}
		fmt.Fprintf(&b, "== report: %s ==\n", rr.Key)
		if err := rr.Report.RenderText(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
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
