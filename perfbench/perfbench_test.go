package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/pfs"
)

var sink int

func seg(off, n, ver int64) pfs.VersionSeg {
	return pfs.VersionSeg{Ext: ext.Extent{Off: off, Len: n}, Ver: ver}
}

func TestCountStale(t *testing.T) {
	expected := []pfs.VersionSeg{seg(0, 10, 1), seg(10, 10, 2), seg(30, 10, 3)}
	cases := []struct {
		name string
		got  []pfs.VersionSeg
		want int64
	}{
		{"all fresh", []pfs.VersionSeg{seg(0, 10, 1), seg(10, 10, 2), seg(30, 10, 3)}, 0},
		{"one read merged across two", []pfs.VersionSeg{seg(0, 20, 1), seg(30, 10, 3)}, 1},
		{"stale tail byte", []pfs.VersionSeg{seg(0, 10, 1), seg(10, 9, 2), seg(19, 1, 0), seg(30, 10, 3)}, 1},
		{"all stale", []pfs.VersionSeg{seg(0, 40, 0)}, 3},
	}
	for _, c := range cases {
		if n := countStale(expected, c.got); n != c.want {
			t.Errorf("%s: countStale = %d, want %d", c.name, n, c.want)
		}
	}
}

func TestFinishModel(t *testing.T) {
	m := map[string]float64{
		"_num.disk.seek_frac": 3, "_den.disk.seek_frac": 4,
		"_den.core.dd_frac":      2, // no data-driven decisions: numerator never set
		"_num.memcache.hit_frac": 0, "_den.memcache.hit_frac": 0,
	}
	finishModel(m)
	if m["disk.seek_frac"] != 0.75 || m["core.dd_frac"] != 0 || m["memcache.hit_frac"] != 0 {
		t.Errorf("ratios: %v", m)
	}
	for k := range m {
		if k[0] == '_' {
			t.Errorf("intermediate key %q left in the model", k)
		}
	}
	for _, name := range modelCounters {
		if _, ok := m[name]; !ok {
			t.Errorf("counter %s missing", name)
		}
	}
}

// TestCPUWeightsOfRealProfile profiles a loop in a simulator package and
// checks the samples parse and land on that package.
func TestCPUWeightsOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	in := make([]ext.Extent, 256)
	for i := range in {
		in[i] = ext.Extent{Off: int64((i * 7919) % 1024 * 4096), Len: 4096}
	}
	var work []ext.Extent
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		work = append(work[:0], in...)
		sink += len(ext.Merge(work))
	}
	pprof.StopCPUProfile()
	w, err := cpuWeights(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(w)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(w) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(w) > 0 && shares["cpu.ext"] == 0 {
		t.Errorf("no samples charged to ext: %v", w)
	}
}
