package main

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/ext"
	"dualpar/internal/harness"
	"dualpar/internal/pfs"
	"dualpar/internal/sim"
)

// verifyOrigin tags the oracle's re-read requests, away from program,
// flusher and harness origins.
const verifyOrigin = 1<<21 + 1

// verify runs the integrity oracle over a finished cluster: it counts the
// written segments and the stale ones, then cross-checks the count against
// harness.VerifyIntegrity, which must fail exactly when some segment is
// stale. The harness's error names the first stale range; it is returned
// as first ("" when nothing is stale).
func verify(cl *cluster.Cluster) (segs, stale int64, first string, err error) {
	segs, stale, err = verifySegments(cl)
	if err != nil {
		return segs, stale, "", err
	}
	herr := harness.VerifyIntegrity(cl)
	if (herr != nil) != (stale > 0) {
		return segs, stale, "", fmt.Errorf("oracles disagree: %d stale segments, harness.VerifyIntegrity: %v", stale, herr)
	}
	if herr != nil {
		first = herr.Error()
	}
	return segs, stale, first, nil
}

// verifySegments is the integrity oracle with a count instead of a first
// error: it re-reads every byte the PFS tracker saw written, through the
// same failover read path the programs used, and compares the version
// stamps the serving replicas return against the expected ones. It returns
// the number of written segments (the tracker's compacted version runs)
// and how many of them read back stale anywhere.
func verifySegments(cl *cluster.Cluster) (segs, stale int64, err error) {
	tr := cl.FS.Tracker()
	if tr == nil {
		return 0, 0, fmt.Errorf("integrity tracking not armed")
	}
	client := cl.FS.Client(cluster.ComputeNodeBase)
	done := false
	cl.K.Spawn("perfbench/verify", func(p *sim.Proc) {
		defer func() { done = true }()
		for _, name := range tr.Files() {
			var written []pfs.VersionSeg
			var extents []ext.Extent
			for _, s := range tr.Expected(name) {
				if s.Ver > 0 {
					written = append(written, s)
					extents = append(extents, s.Ext)
				}
			}
			if len(written) == 0 {
				continue
			}
			got, rerr := client.ReadVersions(p, name, ext.Merge(extents), verifyOrigin)
			if rerr != nil {
				err = fmt.Errorf("%q: %w", name, rerr)
				return
			}
			segs += int64(len(written))
			stale += countStale(written, got)
		}
	})
	if !driveUntil(cl, &done, 30*time.Minute) {
		return segs, stale, fmt.Errorf("re-read did not complete within 30m of simulated time")
	}
	return segs, stale, err
}

// countStale counts the expected segments whose bytes read back with any
// other version. Both lists are sorted by offset, and got covers every
// expected byte.
func countStale(expected, got []pfs.VersionSeg) int64 {
	var n int64
	j := 0
	for _, e := range expected {
		for j < len(got) && got[j].Ext.End() <= e.Ext.Off {
			j++
		}
		for k := j; k < len(got) && got[k].Ext.Off < e.Ext.End(); k++ {
			if got[k].Ver != e.Ver {
				n++
				break
			}
		}
	}
	return n
}
