package sim

import (
	"testing"
	"time"
)

// Micro-benchmarks of the kernel hot paths the sweep engine leans on:
// event scheduling, Proc sleep/wake, and Signal waits. These are the
// per-simulated-operation costs, so allocs/op is the metric the baseline
// guards most tightly — the event free list and the per-Proc reusable
// waiter should keep the steady state at zero.

func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	k.Run()
	if count != b.N {
		b.Fatalf("ran %d events, want %d", count, b.N)
	}
}

func BenchmarkKernelSleepWake(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	k.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	k.Run()
}

// BenchmarkKernelHandoff measures the Proc switch itself: two Procs
// ping-pong one value through a pair of Queues, so every op is two parks
// and two wakes with nothing else in the event queue to amortize them.
func BenchmarkKernelHandoff(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	ping, pong := NewQueue[int](k), NewQueue[int](k)
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			if v := pong.Get(p); v != i {
				b.Errorf("round %d: got %d back", i, v)
				return
			}
		}
	})
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Put(ping.Get(p))
		}
	})
	k.Run()
}

// BenchmarkKernelSpawn measures a Proc's whole life: spawn, start and
// finish. Only allocs/op is reported, since each op creates and frees a
// coroutine and its wall time is dominated by the runtime's goroutine
// bookkeeping rather than the kernel.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	fn := func(p *Proc) {}
	for i := 0; i < b.N; i++ {
		k.Spawn("p", fn)
		k.Run()
	}
	if k.Live() != 0 {
		b.Fatalf("live = %d after the last run, want 0", k.Live())
	}
	b.ReportMetric(0, "ns/op")
}

func BenchmarkKernelSignalBroadcast(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	s := k.NewSignal()
	const waiters = 8
	for w := 0; w < waiters; w++ {
		k.Spawn("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				s.Wait(p)
			}
		})
	}
	k.Spawn("broadcaster", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond) // let every waiter park first
			s.Broadcast()
		}
	})
	k.Run()
}

func BenchmarkKernelWaitTimeout(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	s := k.NewSignal()
	k.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if s.WaitTimeout(p, time.Microsecond) {
				b.Errorf("wait %d: woken without a broadcast", i)
				return
			}
		}
	})
	k.Run()
}

// BenchmarkKernelPopulatedHeap measures scheduling against a deep standing
// heap: 1024 far-future events keep the 4-ary sift paths honest (an empty
// heap would route everything through the same-instant FIFO or solo-sleep
// shortcuts and never touch them).
func BenchmarkKernelPopulatedHeap(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	const standing = 1024
	for i := 0; i < standing; i++ {
		k.After(time.Hour+time.Duration(i)*time.Second, func() {})
	}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	k.RunUntil(time.Hour - time.Second)
	if count != b.N {
		b.Fatalf("ran %d events, want %d", count, b.N)
	}
}

// BenchmarkKernelWaitTimeoutEarlyWake measures the watchdog pattern where
// the broadcast always beats the timeout: every wait arms a long timer that
// must then be canceled, so this pins both the cancel path's cost and that
// spent timers never accumulate in the queue.
func BenchmarkKernelWaitTimeoutEarlyWake(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	s := k.NewSignal()
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !s.WaitTimeout(p, time.Hour) {
				b.Errorf("wait %d: timed out, want early broadcast", i)
				return
			}
		}
	})
	k.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond) // let the waiter park first
			s.Broadcast()
		}
	})
	k.Run()
	if n := k.Pending(); n != 0 {
		b.Fatalf("Pending = %d after drain, want 0 (canceled timers must not linger)", n)
	}
}
