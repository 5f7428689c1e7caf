package harness

import (
	"errors"
	"testing"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/fault"
	"dualpar/internal/workloads"
)

// matrixProg is the crash-matrix workload: tiny rank count, big blocks, and
// a long compute interval, so each lifecycle phase (compute, absorb, seal,
// drain) occupies a wide, well-separated window and a wall-clock crash time
// lands in the intended phase with generous margin.
func matrixProg() workloads.EpochCheckpoint {
	return workloads.EpochCheckpoint{
		Procs:      2,
		BlockBytes: 1 << 20,
		Epochs:     3,
		Interval:   300 * time.Millisecond,
		Shared:     true,
		BaseName:   "ckpt.dat",
	}
}

// slowDrain absorbs a 1 MB block in 125 ms and drains it in 500 ms, so
// sealed records linger in the log long enough to crash mid-drain.
func slowDrain() *burst.Config {
	return &burst.Config{
		CapacityBytes: 16 << 20,
		AbsorbBps:     8 << 20,
		DrainBps:      2 << 20,
		SealLatency:   100 * time.Microsecond,
	}
}

// fastDrain drains sealed records essentially as soon as they seal, so a
// crash landing in the next epoch's compute finds the log fully drained.
func fastDrain() *burst.Config {
	c := slowDrain()
	c.DrainBps = 400 << 20
	return c
}

// TestCheckpointCrashMatrix is the acceptance matrix: a client crash at
// every lifecycle point — mid-epoch, post-seal pre-drain, mid-drain,
// post-drain — on both write paths must recover exactly the last committed
// epoch, with the restart read passing the integrity oracle and byte
// conservation (audit armed) holding throughout.
//
// Timeline (burst path, per the configs above; direct writes finish in a
// few tens of ms so its epochs run slightly ahead): epoch e computes for
// 300 ms, then the two ranks absorb 1 MB each back to back (250 ms), seal,
// and barrier. Epoch 1 is committed ~550 ms, epoch 2 ~1110 ms, epoch 3
// ~1665 ms. With slowDrain the two epoch-1 records drain over
// [~550, ~1550] ms, so epoch-2 records are always sealed-but-undrained
// when a crash lands before ~1550 ms.
func TestCheckpointCrashMatrix(t *testing.T) {
	prog := matrixProg()
	block := prog.BlockBytes
	cases := []struct {
		name    string
		bcfg    *burst.Config
		crashAt time.Duration
		// wantCommitted is exact: recovery must restore this epoch, no more,
		// no less.
		wantCommitted int
		// Burst-path stats expectations, in bytes (-1 = don't check).
		wantDrained, wantReplayed, wantDiscarded int64
	}{
		// Crash during epoch 1's compute: nothing sealed anywhere, restart
		// has nothing to recover and must say so with the typed error.
		{"direct/no-epoch", nil, 150 * time.Millisecond, 0, -1, -1, -1},
		{"burst/no-epoch", slowDrain(), 150 * time.Millisecond, 0, 0, 0, 0},

		// Mid-epoch: crash lands inside epoch 2's write window (direct: the
		// synchronous writes; burst: the absorb), so epoch 2 never seals.
		{"direct/mid-epoch", nil, 450 * time.Millisecond, 1, -1, -1, -1},
		// Burst: seals are per-rank, and rank 0 seals its epoch-2 record as
		// soon as its absorb finishes (~985 ms) — before the barrier — so at
		// the crash that record is sealed and replays, while rank 1's is
		// still unsealed and is discarded. The epoch stays uncommitted (rank
		// 1 never sealed it) and the replayed block clobbers nothing: epoch
		// regions never overlap. Of epoch 1, one record drained in-flight
		// and one replays.
		{"burst/mid-epoch", slowDrain(), 1000 * time.Millisecond, 1, 1 << 20, 2 << 20, 1 << 20},

		// Post-seal pre-drain: crash in epoch 3's compute, after epoch 2
		// sealed but while the drainer is still working through epoch 1 —
		// epoch 2's bytes are sealed-but-undrained and must replay.
		{"direct/post-seal", nil, 950 * time.Millisecond, 2, -1, -1, -1},
		{"burst/post-seal-pre-drain", slowDrain(), 1200 * time.Millisecond, 2, 2 << 20, 2 << 20, 0},

		// Mid-drain: crash inside epoch 3's absorb — the in-flight epoch-1
		// drain completes, sealed epoch-2 records replay, unsealed epoch-3
		// records are discarded.
		{"burst/mid-drain", slowDrain(), 1500 * time.Millisecond, 2, 2 << 20, 2 << 20, 2 << 20},

		// Post-drain: with a fast drain every sealed record is durable
		// moments after its seal; a crash in epoch 3's compute leaves an
		// empty log and recovery replays nothing.
		{"burst/post-drain", fastDrain(), 1200 * time.Millisecond, 2, 4 << 20, 0, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cr := Opts{Seed: 1, Audit: true}.runCheckpoint(prog, 2, tc.bcfg, clientCrashAt(tc.crashAt))
			if !cr.crashed {
				t.Fatalf("program did not crash (crash at %v scheduled)", tc.crashAt)
			}
			if cr.committed != tc.wantCommitted {
				t.Fatalf("committed epoch = %d, want %d", cr.committed, tc.wantCommitted)
			}
			if tc.bcfg != nil {
				if cr.recoveryErr != nil {
					t.Fatalf("recovery: %v", cr.recoveryErr)
				}
				s := cr.stats
				if s.Resident != 0 {
					t.Errorf("log not empty after recovery+drain: %d resident bytes", s.Resident)
				}
				if tc.wantDrained >= 0 && s.Drained != tc.wantDrained {
					t.Errorf("Drained = %d, want %d (stats %+v)", s.Drained, tc.wantDrained, s)
				}
				if tc.wantReplayed >= 0 && s.Replayed != tc.wantReplayed {
					t.Errorf("Replayed = %d, want %d (stats %+v)", s.Replayed, tc.wantReplayed, s)
				}
				if tc.wantDiscarded >= 0 && s.Discarded != tc.wantDiscarded {
					t.Errorf("Discarded = %d, want %d (stats %+v)", s.Discarded, tc.wantDiscarded, s)
				}
				if got := s.Drained + s.Replayed + s.Discarded + s.Resident; got != s.Absorbed {
					t.Errorf("conservation: absorbed %d != drained %d + replayed %d + discarded %d + resident %d",
						s.Absorbed, s.Drained, s.Replayed, s.Discarded, s.Resident)
				}
			}
			if tc.wantCommitted == 0 {
				if !errors.Is(cr.restartErr, burst.ErrNoCommittedEpoch) {
					t.Fatalf("restart error = %v, want the typed %v", cr.restartErr, burst.ErrNoCommittedEpoch)
				}
			} else {
				if cr.restartErr != nil {
					t.Fatalf("restart: %v", cr.restartErr)
				}
				if !cr.restart.finished {
					t.Fatalf("restart did not finish")
				}
				if want := int64(prog.Procs) * block; cr.restart.bytes != want {
					t.Errorf("restart read %d bytes, want %d (one block per rank of epoch %d)",
						cr.restart.bytes, want, cr.committed)
				}
			}
			if err := VerifyIntegrity(cr.cl); err != nil {
				t.Errorf("integrity oracle: %v", err)
			}
		})
	}
}

// TestCheckpointNoCrashBothPaths is the clean-lifecycle sanity cell: no
// crash, all epochs commit, the burst log drains to empty, and the restart
// reads the final epoch on both paths.
func TestCheckpointNoCrashBothPaths(t *testing.T) {
	prog := matrixProg()
	for _, tc := range []struct {
		name string
		bcfg *burst.Config
	}{
		{"direct", nil},
		{"burst", slowDrain()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr := Opts{Seed: 1, Audit: true}.runCheckpoint(prog, 2, tc.bcfg, &fault.Schedule{})
			if cr.crashed {
				t.Fatalf("program crashed with an empty schedule")
			}
			if cr.committed != prog.Epochs {
				t.Fatalf("committed = %d, want all %d epochs", cr.committed, prog.Epochs)
			}
			if tc.bcfg != nil {
				if cr.recoveryErr != nil {
					t.Fatalf("drain wait: %v", cr.recoveryErr)
				}
				s := cr.stats
				if s.Drained != s.Absorbed || s.Replayed != 0 || s.Discarded != 0 || s.Resident != 0 {
					t.Errorf("clean run should drain everything: stats %+v", s)
				}
			}
			if cr.restartErr != nil {
				t.Fatalf("restart: %v", cr.restartErr)
			}
			if err := VerifyIntegrity(cr.cl); err != nil {
				t.Errorf("integrity oracle: %v", err)
			}
		})
	}
}

// TestCheckpointDrainErrorSurfacesEpoch pins the error-chain contract at
// the harness level: when the drain's PFS writes run out of retries (all
// replicas of a stripe down), the tier error names the originating epoch
// and wraps the typed pfs retry error.
func TestCheckpointDrainErrorSurfacesEpoch(t *testing.T) {
	prog := matrixProg()
	// Unreplicated PFS; both data servers in rank 0's stripes crash for
	// good early, so background drains start failing once retries exhaust.
	sch := &fault.Schedule{}
	for s := 0; s < 9; s++ {
		sch.Windows = append(sch.Windows, fault.Window{
			Kind: fault.ServerCrash, Target: s, Start: 600 * time.Millisecond,
		})
	}
	cr := Opts{Seed: 1}.runCheckpoint(prog, 1, slowDrain(), sch)
	tier := cr.cl.Burst()
	err := tier.Err()
	if err == nil {
		t.Fatalf("all servers down mid-drain, tier.Err() = nil")
	}
	var ee *burst.EpochError
	if !errors.As(err, &ee) {
		t.Fatalf("tier error %v does not carry an EpochError", err)
	}
	if ee.Epoch < 1 || ee.Epoch > prog.Epochs {
		t.Errorf("EpochError names epoch %d, outside [1,%d]", ee.Epoch, prog.Epochs)
	}
	if !errorsIsRetries(err) {
		t.Errorf("tier error %v does not wrap pfs.ErrRetriesExhausted", err)
	}
}
