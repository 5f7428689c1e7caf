// Command perfbench measures the DualPar simulator end to end and per
// layer on three closed-batch workloads. One invocation runs one workload:
// an oracle repetition (audit and integrity tracking armed, outputs
// checked, simulated statistics recorded) followed by timed repetitions
// for the requested number of seconds. Host-time metrics are medians over
// the timed repetitions; every simulated statistic of every timed
// repetition must equal the oracle repetition's.
//
// Each repetition runs in a child process of its own (the same binary with
// -rep), one after the other. Simulated processes still parked when a run
// ends are goroutines that never exit, and they keep their cluster
// reachable; in a long-lived process the heap would grow with every
// repetition and later repetitions would pay for the earlier ones.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced repetitions with CPU-profiled ones and reports the
// per-layer metrics. The last line of standard output is one JSON object;
// see README.md for the metrics and run.py for how it is built and run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest timed repetitions of each kind a run takes, however
// short -seconds is.
const minReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "read-mpiio", "workload to run: read-mpiio, ckpt-write or report-btio")
	seed := flag.Int64("seed", 1, "benchmark seed; the clusters' seeds derive from it")
	seconds := flag.Float64("seconds", 10, "how long the timed repetitions run, in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from CPU-profiled repetitions")
	rep := flag.Bool("rep", false, "run one repetition and print its measurements as JSON (used by the parent run)")
	oracles := flag.Bool("oracles", false, "with -rep: arm the audit and integrity oracles")
	profile := flag.Bool("profile", false, "with -rep: CPU-profile the repetition")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = fmt.Errorf("bad -trace %d or -seconds %g", *trace, *seconds)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *rep {
		if err := childRep(w, *seed, *oracles, *profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res = &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// childRep runs one repetition in this process and prints its result.
func childRep(w *workload, seed int64, oracles, profile bool) error {
	var buf bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
	}
	res, err := runRep(w, seed, oracles)
	if profile {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	if profile {
		if res.CPU, err = cpuWeights(buf.Bytes()); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawnRep runs one repetition in a child process and waits for it.
func spawnRep(w *workload, seed int64, oracles, profile bool) (*repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-rep", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-oracles="+strconv.FormatBool(oracles), "-profile="+strconv.FormatBool(profile))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition process: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("repetition output: %w", err)
	}
	return &res, nil
}

// run measures workload w at seed for the given time.
func run(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	fmt.Printf("# perfbench workload=%s seed=%d cluster_seeds=%v seconds=%g trace=%v gomaxprocs=%d %s\n",
		w.name, seed, clusterSeeds(seed), window.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())
	oracle, err := spawnRep(w, seed, true, false)
	if err != nil {
		return nil, fmt.Errorf("oracle repetition: %w", err)
	}

	var plain, profiled []*repResult
	cpu := make(map[string]int64)
	start := time.Now()
	for i := 0; time.Since(start) < window || len(plain) < minReps || (traced && len(profiled) < minReps); i++ {
		profile := traced && i%2 == 1
		rep, err := spawnRep(w, seed, false, profile)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i+1, err)
		}
		if key := firstDiff(oracle.Model, rep.Model); key != "" {
			return nil, fmt.Errorf("repetition %d: simulated statistic %s = %v, oracle repetition had %v",
				i+1, key, rep.Model[key], oracle.Model[key])
		}
		if profile {
			profiled = append(profiled, rep)
			for k, v := range rep.CPU {
				cpu[k] += v
			}
		} else {
			plain = append(plain, rep)
		}
	}
	fmt.Printf("# host_s/host_wall_s per repetition: %v\n", hostTimes(plain))

	failFrac := float64(oracle.Failed) / float64(oracle.Attempted)
	m := make(map[string]metric)
	if !traced {
		m["host_s"] = metric{median(plain, func(r *repResult) float64 { return r.HostS }), "s"}
		var setups []float64
		for _, r := range plain {
			setups = append(setups, r.Setups...)
		}
		m["setup_s"] = metric{medianOf(setups), "s"}
		m["alloc_MB"] = metric{median(plain, func(r *repResult) float64 { return r.AllocMB }), "MB"}
		m["allocs_k"] = metric{median(plain, func(r *repResult) float64 { return r.AllocsK }), "k"}
		m["live_MB"] = metric{median(plain, func(r *repResult) float64 { return r.LiveMB }), "MB"}
		for _, s := range schemes {
			m["sim_MBps_"+s.label] = metric{oracle.Model["sim_MBps_"+s.label], "MB/s"}
		}
		m["ok_frac"] = metric{1 - failFrac, "fraction"}
	} else {
		for k, v := range cpuShares(cpu) {
			m[k] = metric{v, "fraction"}
		}
		for _, name := range spanNames {
			if name == spanVerify {
				m[name] = metric{oracle.Spans[name], "s"}
				continue
			}
			m[name] = metric{median(profiled, func(r *repResult) float64 { return r.Spans[name] }), "s"}
		}
		for _, name := range modelCounters {
			m[name] = metric{oracle.Model[name], unitOf(name)}
		}
		m["verify.stale_segments"] = metric{float64(oracle.Stale), "count"}
		m["fail_frac"] = metric{failFrac, "fraction"}
		m["host_wall_s"] = metric{median(plain, func(r *repResult) float64 { return r.HostWallS }), "s"}
		m["trace.host_s"] = metric{median(profiled, func(r *repResult) float64 { return r.HostS }), "s"}
		m["trace.overhead_s"] = metric{m["trace.host_s"].Value -
			median(plain, func(r *repResult) float64 { return r.HostS }), "s"}
	}
	detail, err := json.Marshal(map[string]any{
		"seed": seed, "cluster_seeds": clusterSeeds(seed), "reps": len(plain), "profiled_reps": len(profiled),
		"attempted": oracle.Attempted, "failed": oracle.Failed, "stale_segments": oracle.Stale, "first_stale": oracle.FirstStale, "model": oracle.Model,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("# detail %s\n", detail)
	return &result{Correct: true, Attempted: oracle.Attempted, Failed: oracle.Failed, Metrics: m}, nil
}

// firstDiff returns the first key (in sorted order) whose value differs
// between a and b, or "".
func firstDiff(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		av, aok := a[k]
		bv, bok := b[k]
		if aok != bok || av != bv {
			return k
		}
	}
	return ""
}

func median(reps []*repResult, f func(*repResult) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return medianOf(v)
}

// medianOf returns the median of v, sorting it in place.
func medianOf(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func hostTimes(reps []*repResult) []string {
	out := make([]string, len(reps))
	for i, r := range reps {
		out[i] = fmt.Sprintf("%.3f/%.3f", r.HostS, r.HostWallS)
	}
	return out
}

// unitOf derives a model counter's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_MB"), strings.HasSuffix(name, ".MB"):
		return "MB"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac"):
		return "fraction"
	}
	return "count"
}
