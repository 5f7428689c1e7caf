//go:build go1.23

package sim

import "iter"

// start runs p as a coroutine on Go's runtime coroutine switch (iter.Pull):
// next resumes the Proc until it parks or returns, and the Proc parks by
// calling yield. It runs in kernel context at the Proc's start event, so a
// spawned Proc costs no goroutine until it first runs. This is the only
// use of a go1.23 API; go.mod keeps its go 1.22 line (modules that require
// this one declare go 1.22 too) and names a go1.24 toolchain instead.
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	p.next()
}
