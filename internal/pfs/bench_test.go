package pfs

import (
	"testing"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// benchRows is how many full stripe rows the benchmark file spans; ops
// cycle through them so every server sees a moving, page-cache-warm range.
const benchRows = 8

// benchPFS drives b.N list-I/O ops of one full stripe row each (one request
// per server) through the client data path on a 3-server file system. The
// timer starts after a 100-op warm-up, so the free lists, waiter lists and
// page cache are primed and allocs/op is the steady-state cost.
func benchPFS(b *testing.B, replicas int, write bool) {
	b.ReportAllocs()
	const warmup = 100
	var k *sim.Kernel
	var fsys *FileSystem
	if replicas > 1 {
		k, fsys = testReplicatedFS(3, replicas)
	} else {
		k, fsys = testFS(3)
	}
	cl := fsys.Client(100)
	row := 3 * fsys.cfg.StripeUnit
	exts := []ext.Extent{{Len: row}}
	run := func(n int) {
		k.Spawn("bench", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				exts[0].Off = int64(i%benchRows) * row
				var err error
				if write {
					err = cl.Write(p, "bench.dat", exts, 1, obs.Ctx{})
				} else {
					err = cl.Read(p, "bench.dat", exts, 1, obs.Ctx{})
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		})
		k.Run()
	}
	k.Spawn("create", func(p *sim.Proc) { cl.Create(p, "bench.dat", benchRows*row) })
	k.Run()
	run(warmup)
	b.ResetTimer()
	run(b.N)
}

func BenchmarkPFSReadR1(b *testing.B)  { benchPFS(b, 1, false) }
func BenchmarkPFSWriteR1(b *testing.B) { benchPFS(b, 1, true) }
func BenchmarkPFSReadR3(b *testing.B)  { benchPFS(b, 3, false) }
func BenchmarkPFSWriteR3(b *testing.B) { benchPFS(b, 3, true) }
