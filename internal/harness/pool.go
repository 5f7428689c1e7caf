package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
)

// The sweep engine: experiments are sweeps over independent cells (one
// simulated cluster per cell, seeded identically to the serial path), so the
// cells can run concurrently across GOMAXPROCS workers. Determinism is
// preserved structurally rather than by luck: a cell returns its outcome,
// sweep stores it in the cell's own element, and the experiment assembles
// rows, series, and notes from those values in canonical order after the
// sweep — so the emitted tables are byte-identical whatever the
// interleaving. Only the progress log (stderr) may interleave differently
// under parallelism.

// Cell is one independent unit of a sweep: a keyed closure that runs a
// self-contained simulation and stores its outcome in storage owned by the
// cell (sweep gives each cell one element of its result slice).
type Cell struct {
	// Key names the cell in errors and panics, e.g. "fig3/read/dualpar".
	Key string
	// Run executes the cell. It must not touch shared mutable state other
	// than its own slot; a panic is captured and surfaced as a *CellError.
	Run func()
}

// CellError reports a cell whose Run panicked. The sweep completes the
// remaining cells before returning it (cells are independent), and when
// several cells fail the error for the canonically-first cell is returned,
// so the reported failure does not depend on scheduling.
type CellError struct {
	// Key is the failing cell's key.
	Key string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (e *CellError) Error() string {
	return fmt.Sprintf("sweep cell %q panicked: %v", e.Key, e.Value)
}

// RunCells executes cells on up to workers concurrent goroutines and waits
// for them all. workers <= 0 means GOMAXPROCS; workers == 1 runs every cell
// inline on the calling goroutine in slice order — the serial code path.
// Cells are dispatched in slice order; once ctx is canceled no further cell
// starts (in-flight cells finish) and ctx.Err() is returned. A panicking
// cell becomes a *CellError; it does not cancel the remaining cells.
func RunCells(ctx context.Context, workers int, cells []Cell) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	errs := make([]*CellError, len(cells))
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &CellError{Key: cells[i].Key, Value: r, Stack: debug.Stack()}
			}
		}()
		cells[i].Run()
	}
	canceled := false
	if workers <= 1 {
		for i := range cells {
			if ctx.Err() != nil {
				canceled = true
				break
			}
			runCell(i)
		}
	} else {
		var (
			mu   sync.Mutex
			next int
			wg   sync.WaitGroup
		)
		// Workers pull the next undispatched cell index under a lock, so
		// dispatch order is canonical even though completion order is not.
		claim := func() int {
			mu.Lock()
			defer mu.Unlock()
			if next >= len(cells) || ctx.Err() != nil {
				return -1
			}
			i := next
			next++
			return i
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := claim()
					if i < 0 {
						return
					}
					runCell(i)
				}
			}()
		}
		wg.Wait()
		canceled = ctx.Err() != nil
	}
	// Deterministic error selection: the first failing cell in canonical
	// order wins, regardless of which worker hit it first.
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	if canceled {
		return ctx.Err()
	}
	return nil
}

// sweep is the experiments' entry into the pool: it runs run(o, i) for
// each key as one cell, with the Opts' parallelism and a log writer safe to
// share between cells, and returns the cells' values in key order. Each
// cell's value lands in its own element, so the result cannot depend on
// scheduling. A cell failure re-panics as its *CellError, matching the
// serial path's fail-fast behavior inside a driver.
func sweep[T any](o Opts, keys []string, run func(o Opts, i int) T) []T {
	o = o.forSweep()
	outs := make([]T, len(keys))
	cells := make([]Cell, len(keys))
	for i, key := range keys {
		cells[i] = Cell{Key: key, Run: func() { outs[i] = run(o, i) }}
	}
	if err := RunCells(o.Ctx, o.parallel(), cells); err != nil {
		panic(err)
	}
	return outs
}

// syncWriter serializes writes from concurrent sweep cells onto one
// underlying writer, so -parallel logging is whole-line atomic and safe for
// non-thread-safe sinks (bytes.Buffer in tests).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}

// forSweep returns a copy of o whose log writer is safe to share between
// concurrent cells. It is idempotent, so nested sweeps (a suite sweep over
// experiments that each sweep their cells) layer a single lock.
func (o Opts) forSweep() Opts {
	if o.Log == nil {
		return o
	}
	if _, ok := o.Log.(*syncWriter); !ok {
		o.Log = &syncWriter{w: o.Log}
	}
	return o
}
