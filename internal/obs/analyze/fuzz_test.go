package analyze

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dualpar/internal/obs"
)

// FuzzParseTrace feeds arbitrary bytes through the offline path
// dualpar-analyze takes on a user's trace file: ParseTrace, then Analyze
// and the text render. Neither may panic, whatever the timestamps,
// durations, tracks or args say; every span ParseTrace accepts ends no
// earlier than it starts, and the report it yields conserves time with a
// non-negative total.
func FuzzParseTrace(f *testing.F) {
	col := obs.NewCollector()
	ctx := col.StartRequest("prog0/rank0")
	col.Span(ctx.ID, obs.StageRequest, "prog0/rank0", 0, 100*time.Millisecond, obs.Str("verb", "read"))
	col.Span(ctx.ID, obs.StageNet, "net", 10*time.Millisecond, 90*time.Millisecond)
	col.Span(ctx.ID, obs.StageServer, "server0/worker0", 20*time.Millisecond, 80*time.Millisecond,
		obs.I64("queue_ns", int64(5*time.Millisecond)))
	col.Span(ctx.ID, obs.StageDisk, "server0/dispatch", 40*time.Millisecond, 70*time.Millisecond,
		obs.I64("seek_ns", int64(8*time.Millisecond)), obs.I64("xfer_ns", int64(15*time.Millisecond)))
	var seed bytes.Buffer
	if err := col.WriteTrace(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"traceEvents":[{"name":"request","ph":"X","ts":1e300,"dur":-1e300,"pid":1,"tid":1,"args":{"req":"1"}}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"disk","ph":"X","ts":5,"dur":1,"pid":1,"tid":2,"args":{"req":"1","seek_ns":"-9"}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"traceEvents":[{"name":"request","ph":"X","ts":-3,"dur":9,"pid":1,"tid":1,"args":{"req":"7"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("span %+v ends before it starts", s)
			}
		}
		rep := Analyze(spans, Options{})
		if !rep.Conserved() {
			t.Fatalf("attribution not conserved (max residual %v)", rep.MaxResidual)
		}
		if rep.TotalSpan < 0 {
			t.Fatalf("total request time %v is negative", rep.TotalSpan)
		}
		var out bytes.Buffer
		if err := rep.RenderText(&out); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParseTraceRejectsOutOfRangeTimes pins the range check: a span that
// starts before zero (the utilization timeline indexes buckets from zero),
// has a negative duration, ends past maxTraceNs, or pushes the summed
// durations past it is a parse error instead of a span the analyzer wraps
// or mis-indexes.
func TestParseTraceRejectsOutOfRangeTimes(t *testing.T) {
	for _, events := range [][][2]string{ // {ts, dur} in µs per event
		{{"1e300", "1"}},
		{{"-1e300", "1"}},
		{{"0", "1e300"}},
		{{"5", "-1"}},
		{{"-3", "9"}},
		{{"4.6e15", "4.6e15"}},
		{{"0", "2e15"}, {"0", "2e15"}, {"0", "2e15"}},
	} {
		for _, stage := range []string{"request", "disk"} {
			var evs []string
			for _, e := range events {
				evs = append(evs, fmt.Sprintf(`{"name":%q,"ph":"X","ts":%s,"dur":%s,"pid":1,"tid":1}`, stage, e[0], e[1]))
			}
			in := `{"traceEvents":[` + strings.Join(evs, ",") + `]}`
			if _, err := ParseTrace(strings.NewReader(in)); err == nil {
				t.Errorf("%s %v: parsed without error", stage, events)
			}
		}
	}
	in := `{"traceEvents":[{"name":"request","ph":"X","ts":4.5e15,"dur":1,"pid":1,"tid":1}]}`
	spans, err := ParseTrace(bytes.NewReader([]byte(in)))
	if err != nil || len(spans) != 1 || spans[0].End != spans[0].Start+time.Microsecond {
		t.Errorf("in-range event: spans %+v, err %v", spans, err)
	}
}
