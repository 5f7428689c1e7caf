package main

import (
	"strings"
	"time"
)

// mb converts bytes to MiB.
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// modelCounters are the per-layer model counters, read through public
// accessors after each cluster's run and summed over a repetition's
// clusters (fractions are recomputed from the sums). All are simulated
// quantities, so they repeat exactly for a seed.
var modelCounters = []string{
	"disk.accesses", "disk.seek_frac", "disk.seek_sim_s", "disk.xfer_sim_s", "disk.busy_sim_s",
	"iosched.served",
	"fs.read_MB", "fs.write_MB", "fs.cache_hit_frac",
	"netsim.messages", "netsim.MB", "netsim.voided",
	"pfs.retries", "pfs.failovers",
	"memcache.gets", "memcache.hit_frac", "memcache.evictions",
	"core.emc_decisions", "core.dd_frac", "core.cycles", "core.mode_switches",
	"mpiio.calls", "mpiio.io_sim_s",
	"burst.absorbed_MB", "burst.drained_MB",
	"obs.spans",
}

// collectModel adds one scheme's simulated statistics to m: its system
// throughput under sim_MBps_<scheme> and its layer counters. Ratio
// counters are kept as numerator/denominator pairs under "_num."/"_den."
// keys until finishModel divides them.
func collectModel(m map[string]float64, sr *schemeRun) {
	var bytes int64
	var last time.Duration
	for _, pr := range sr.runs {
		bytes += pr.Instr().TotalBytes()
		last = max(last, pr.Elapsed())
		for _, rs := range pr.Instr().Ranks {
			m["mpiio.calls"] += float64(rs.Calls)
			m["mpiio.io_sim_s"] += rs.IOTime.Seconds()
		}
		if c := pr.Cache(); c != nil {
			m["memcache.gets"] += float64(c.Gets())
			m["_num.memcache.hit_frac"] += float64(c.Hits())
			m["_den.memcache.hit_frac"] += float64(c.Gets())
			m["memcache.evictions"] += float64(c.Evictions())
		}
		m["core.cycles"] += float64(pr.Cycles())
		m["core.mode_switches"] += float64(len(pr.ModeSwitches))
	}
	// The scheme's throughput over all its clusters is their bytes over
	// their summed makespans: the batches run back to back.
	m["_num.sim_MBps_"+sr.scheme.label] += mb(bytes)
	m["_den.sim_MBps_"+sr.scheme.label] += last.Seconds()

	ds := sr.cl.ServerStats()
	m["disk.accesses"] += float64(ds.Accesses)
	m["_num.disk.seek_frac"] += float64(ds.Seeks)
	m["_den.disk.seek_frac"] += float64(ds.Accesses)
	m["disk.seek_sim_s"] += ds.SeekTime.Seconds()
	m["disk.xfer_sim_s"] += ds.TransferTime.Seconds()
	m["disk.busy_sim_s"] += ds.BusyTime.Seconds()
	for _, st := range sr.cl.Stores {
		m["iosched.served"] += float64(st.Dispatcher().Served())
		m["fs.read_MB"] += mb(st.BytesRead())
		m["fs.write_MB"] += mb(st.BytesWritten())
		m["_num.fs.cache_hit_frac"] += float64(st.CacheHitPages())
		m["_den.fs.cache_hit_frac"] += float64(st.CacheHitPages() + st.CacheMissPages())
	}
	m["netsim.messages"] += float64(sr.cl.Net.Messages())
	m["netsim.MB"] += mb(sr.cl.Net.BytesSent())
	m["netsim.voided"] += float64(sr.cl.Net.Voided())
	m["pfs.retries"] += float64(sr.cl.FS.Retries())
	m["pfs.failovers"] += float64(sr.cl.FS.Failovers())
	for _, d := range sr.runner.EMCDecisions() {
		m["core.emc_decisions"]++
		m["_den.core.dd_frac"]++
		if d.DataDriven {
			m["_num.core.dd_frac"]++
		}
	}
	if tier := sr.cl.Burst(); tier != nil {
		bs := tier.Stats()
		m["burst.absorbed_MB"] += mb(bs.Absorbed)
		m["burst.drained_MB"] += mb(bs.Drained)
	}
	if sr.col != nil {
		m["obs.spans"] += float64(len(sr.col.Spans()))
	}
}

// finishModel turns the numerator/denominator pairs into ratios (0 when
// nothing was counted) and makes sure every listed counter is present.
func finishModel(m map[string]float64) {
	var ratios []string
	for k := range m {
		if name, ok := strings.CutPrefix(k, "_den."); ok {
			ratios = append(ratios, name)
		}
	}
	for _, name := range ratios {
		m[name] = 0
		if den := m["_den."+name]; den > 0 {
			m[name] = m["_num."+name] / den
		}
		delete(m, "_num."+name)
		delete(m, "_den."+name)
	}
	for _, name := range modelCounters {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
}
