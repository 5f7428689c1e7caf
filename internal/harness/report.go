package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"

	"dualpar/internal/cluster"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
)

// RunReport pairs one run's deterministic identity with its attribution.
type RunReport struct {
	Key    string
	Report *analyze.Report
}

// ReportSink collects one time-attribution report per experiment run;
// point Opts.Reports at one to arm it. Safe for concurrent sweep cells.
type ReportSink struct {
	mu      sync.Mutex
	reports map[string]*analyze.Report
}

// reportKey names a run by what the harness can see — the cluster seed plus
// desc, the run's description (each program's identity, mode, placement
// and start, or a tenant mix's tenancy spec) — and a fingerprint of the
// recorded timeline itself. The description alone is not unique (sweeps
// rerun the same program with different workload internals or core
// configs), so the span hash does the disambiguation: runs with equal keys
// recorded byte-identical timelines and therefore interchangeable reports,
// keeping Drain independent of which concurrent cell stored last.
func reportKey(cl *cluster.Cluster, desc string, col *obs.Collector) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d%s", cl.Config().Seed, desc)
	h := fnv.New64a()
	for _, s := range col.Spans() {
		fmt.Fprintf(h, "%d/%s/%s/%d/%d;", s.ID, s.Stage, s.Track, s.Start, s.End)
	}
	fmt.Fprintf(&b, "#%016x", h.Sum64())
	return b.String()
}

// record analyzes one finished run's collector into the sink.
func (s *ReportSink) record(key string, col *obs.Collector) {
	rep := analyze.FromCollector(col, analyze.Options{})
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reports == nil {
		s.reports = make(map[string]*analyze.Report)
	}
	s.reports[key] = rep
}

// Drain returns all accumulated run reports sorted by key and clears the
// sink. The order — and therefore any rendering of it — is independent of
// sweep parallelism.
func (s *ReportSink) Drain() []RunReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunReport, 0, len(s.reports))
	for k, r := range s.reports {
		out = append(out, RunReport{Key: k, Report: r})
	}
	s.reports = nil
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Render drains the sink and writes each report in key order as a
// "== report: KEY ==" header, its text rendering and a blank line. It
// returns the first write error, or else an error naming the first run
// whose attribution violates conservation.
func (s *ReportSink) Render(w io.Writer) error {
	var bad error
	for _, rr := range s.Drain() {
		fmt.Fprintf(w, "== report: %s ==\n", rr.Key)
		if err := rr.Report.RenderText(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if !rr.Report.Conserved() && bad == nil {
			bad = fmt.Errorf("run %s: attribution violates conservation (max residual %dns)",
				rr.Key, int64(rr.Report.MaxResidual))
		}
	}
	return bad
}
