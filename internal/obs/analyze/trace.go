package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dualpar/internal/obs"
)

// traceEvent is the subset of the Chrome trace-event schema the analyzer
// needs to invert obs.WriteTrace.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// nsOf recovers exact integer nanoseconds from a µs float. WriteTrace emits
// float64(ns)/1000; every virtual-time ns fits a float64 mantissa after the
// multiply, so rounding restores the original value bit-exactly.
func nsOf(us float64) time.Duration {
	return time.Duration(math.Round(us * 1000))
}

// maxTraceNs bounds every span's end and the sum of all span durations
// (2^62 ns, ~146 years), so the analyzer's totals cannot overflow int64.
const maxTraceNs = time.Duration(1 << 62)

// ParseTrace reads a Chrome trace-event JSON file written by obs.WriteTrace
// and reconstructs the span list (instants are not needed for attribution).
// Track names come from the thread_name metadata events; an "X" event on an
// unnamed (pid,tid) keeps a synthetic "pid<P>/tid<T>" track so foreign traces
// still analyze. An "X" event that starts before zero, has a negative
// duration or ends past maxTraceNs, or a trace whose durations sum past
// maxTraceNs, is an error rather than a span the analyzer mis-adds.
func ParseTrace(r io.Reader) ([]obs.Span, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	tracks := make(map[[2]int]string)
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[[2]int{ev.Pid, ev.Tid}] = ev.Args["name"]
		}
	}
	var spans []obs.Span
	var total time.Duration
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if !(ev.Ts >= 0 && ev.Dur >= 0 && ev.Ts+ev.Dur <= float64(maxTraceNs)/1000) {
			return nil, fmt.Errorf("parse trace: %q event at ts %g with dur %g out of range", ev.Name, ev.Ts, ev.Dur)
		}
		dur := nsOf(ev.Dur)
		if dur > maxTraceNs-total {
			return nil, fmt.Errorf("parse trace: span durations sum past %v", maxTraceNs)
		}
		total += dur
		track, ok := tracks[[2]int{ev.Pid, ev.Tid}]
		if !ok {
			track = fmt.Sprintf("pid%d/tid%d", ev.Pid, ev.Tid)
		}
		s := obs.Span{
			Stage: obs.Stage(ev.Name),
			Track: track,
			Start: nsOf(ev.Ts),
		}
		s.End = s.Start + dur
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := ev.Args[k]
			if k == "req" {
				var id int64
				if _, err := fmt.Sscanf(v, "%d", &id); err == nil {
					s.ID = obs.RequestID(id)
					continue
				}
			}
			s.Args = append(s.Args, obs.Str(k, v))
		}
		spans = append(spans, s)
	}
	return spans, nil
}
