package analyze

import (
	"sort"
	"strconv"
	"time"

	"dualpar/internal/obs"
)

// Phase names one slice of the attribution taxonomy.
type Phase string

const (
	// PhaseCompute is request time not covered by any recorded stage: the
	// rank (or client) is computing, aggregating, or otherwise off the I/O
	// path.
	PhaseCompute Phase = "compute"
	// PhaseSuspend is time a rank spent suspended inside a data-driven
	// cycle waiting for the CRM to fill the cache.
	PhaseSuspend Phase = "suspend"
	// PhaseCache is time spent in global-cache operations (gets and puts,
	// including their home-node CPU and wire time).
	PhaseCache Phase = "cache"
	// PhaseNetwork is wire time of request/response transfers.
	PhaseNetwork Phase = "network"
	// PhaseQueue is queueing delay: waiting in a data server's request
	// queue or in the block layer's elevator.
	PhaseQueue Phase = "queue"
	// PhaseServer is data-server service time not attributable deeper:
	// request CPU, store bookkeeping, response assembly.
	PhaseServer Phase = "server"
	// PhaseOverhead is fixed per-access device cost (command overhead,
	// plus any fault-injection degradation surcharge).
	PhaseOverhead Phase = "overhead"
	// PhaseSeek is head positioning, including streamed forward skips.
	PhaseSeek Phase = "seek"
	// PhaseRotation is rotational latency.
	PhaseRotation Phase = "rotation"
	// PhaseTransfer is media transfer of the requested sectors.
	PhaseTransfer Phase = "transfer"
)

// AllPhases lists the taxonomy in canonical rendering order.
var AllPhases = []Phase{
	PhaseCompute, PhaseSuspend, PhaseCache, PhaseNetwork, PhaseQueue,
	PhaseServer, PhaseOverhead, PhaseSeek, PhaseRotation, PhaseTransfer,
}

// Sweep priorities: when intervals overlap, the deepest stage wins, so each
// elementary segment of a request is attributed exactly once. Disk
// sub-phases sit deepest (they subdivide the device's exclusive service
// window), then block-layer queueing, then server service, server queueing,
// network, cache, and suspension; uncovered gaps fall to compute.
const (
	prioDiskPhase = 70
	prioDiskQueue = 60
	prioServer    = 50
	prioSrvQueue  = 40
	prioNetwork   = 30
	prioCache     = 20
	prioSuspend   = 10
)

// interval is one phase-labeled child interval competing in the sweep.
type interval struct {
	lo, hi time.Duration
	prio   int
	phase  Phase
	track  string
}

// argI64 fetches an integer span argument (ok=false when absent).
func argI64(s obs.Span, key string) (int64, bool) {
	for _, a := range s.Args {
		if a.Key == key {
			v, err := strconv.ParseInt(a.Val, 10, 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// argStr fetches a string span argument.
func argStr(s obs.Span, key string) string {
	for _, a := range s.Args {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// queueDur reads a span's queue wait from its queue_ns argument.
func queueDur(s obs.Span) time.Duration {
	ns, _ := argI64(s, "queue_ns")
	return time.Duration(ns)
}

// childIntervals expands one child span into its phase intervals.
func childIntervals(s obs.Span, out []interval) []interval {
	switch s.Stage {
	case obs.StageNet:
		out = append(out, interval{s.Start, s.End, prioNetwork, PhaseNetwork, s.Track})
	case obs.StageCache:
		out = append(out, interval{s.Start, s.End, prioCache, PhaseCache, s.Track})
	case obs.StageSuspend:
		out = append(out, interval{s.Start, s.End, prioSuspend, PhaseSuspend, s.Track})
	case obs.StageServer:
		out = append(out, interval{s.Start, s.End, prioServer, PhaseServer, s.Track})
		if q := queueDur(s); q > 0 {
			out = append(out, interval{s.Start - q, s.Start, prioSrvQueue, PhaseQueue, s.Track})
		}
	case obs.StageDisk:
		out = append(out, diskIntervals(s)...)
		if q := queueDur(s); q > 0 {
			out = append(out, interval{s.Start - q, s.Start, prioDiskQueue, PhaseQueue, s.Track})
		}
	}
	return out
}

// diskIntervals lays the device's component breakdown out sequentially over
// the dispatch span: command overhead, then seek, rotation, transfer; any
// unexplained tail (absent with the built-in device models) counts as
// overhead. A span with no breakdown args at all (a foreign trace) falls
// back to transfer for the whole window.
func diskIntervals(s obs.Span) []interval {
	ovh, _ := argI64(s, "ovh_ns")
	seek, _ := argI64(s, "seek_ns")
	rot, _ := argI64(s, "rot_ns")
	xfer, _ := argI64(s, "xfer_ns")
	if ovh+seek+rot+xfer <= 0 {
		return []interval{{s.Start, s.End, prioDiskPhase, PhaseTransfer, s.Track}}
	}
	out := make([]interval, 0, 5)
	at := s.Start
	add := func(ph Phase, d time.Duration) {
		if d <= 0 {
			return
		}
		hi := at + d
		if hi > s.End {
			hi = s.End
		}
		if hi > at {
			out = append(out, interval{at, hi, prioDiskPhase, ph, s.Track})
			at = hi
		}
	}
	add(PhaseOverhead, time.Duration(ovh))
	add(PhaseSeek, time.Duration(seek))
	add(PhaseRotation, time.Duration(rot))
	add(PhaseTransfer, time.Duration(xfer))
	if at < s.End {
		// Unexplained tail — keep conservation exact rather than guessing.
		out = append(out, interval{at, s.End, prioDiskPhase, PhaseOverhead, s.Track})
	}
	return out
}

// attributeRequests runs the sweep for every traced request in the spans.
func attributeRequests(spans []obs.Span) []RequestAttribution {
	type reqData struct {
		span     obs.Span
		hasSpan  bool
		children []obs.Span
	}
	byID := make(map[obs.RequestID]*reqData)
	var ids []obs.RequestID
	get := func(id obs.RequestID) *reqData {
		rd := byID[id]
		if rd == nil {
			rd = &reqData{}
			byID[id] = rd
			ids = append(ids, id)
		}
		return rd
	}
	for _, s := range spans {
		if s.ID == 0 {
			continue // untraced (e.g. background flusher disk work)
		}
		rd := get(s.ID)
		if s.Stage == obs.StageRequest {
			rd.span = s
			rd.hasSpan = true
		} else {
			rd.children = append(rd.children, s)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make([]RequestAttribution, 0, len(ids))
	for _, id := range ids {
		rd := byID[id]
		if !rd.hasSpan {
			continue // orphan children (request span never closed)
		}
		out = append(out, attributeOne(id, rd.span, rd.children))
	}
	return out
}

// attributeOne tiles one request's span into phase segments via the
// deepest-wins sweep and accumulates the phase totals.
func attributeOne(id obs.RequestID, req obs.Span, children []obs.Span) RequestAttribution {
	a := RequestAttribution{
		ID:     id,
		Track:  req.Track,
		Verb:   argStr(req, "verb"),
		Start:  req.Start,
		End:    req.End,
		Phases: make(map[Phase]time.Duration),
	}
	var ivs []interval
	for _, c := range children {
		ivs = childIntervals(c, ivs)
	}
	// Clip to the request window and drop empties.
	clipped := ivs[:0]
	for _, iv := range ivs {
		if iv.lo < req.Start {
			iv.lo = req.Start
		}
		if iv.hi > req.End {
			iv.hi = req.End
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	ivs = clipped
	// Deterministic winner order: priority desc, then earliest, then phase
	// and track for full stability.
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].prio != ivs[j].prio {
			return ivs[i].prio > ivs[j].prio
		}
		if ivs[i].lo != ivs[j].lo {
			return ivs[i].lo < ivs[j].lo
		}
		if ivs[i].phase != ivs[j].phase {
			return ivs[i].phase < ivs[j].phase
		}
		return ivs[i].track < ivs[j].track
	})

	// Elementary segment boundaries.
	bounds := make([]time.Duration, 0, 2*len(ivs)+2)
	bounds = append(bounds, req.Start, req.End)
	for _, iv := range ivs {
		bounds = append(bounds, iv.lo, iv.hi)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	bounds = uniq

	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		phase, track := PhaseCompute, req.Track
		for _, iv := range ivs { // first match = highest priority (sorted)
			if iv.lo <= lo && iv.hi >= hi {
				phase, track = iv.phase, iv.track
				break
			}
		}
		a.Phases[phase] += hi - lo
		if n := len(a.Path); n > 0 && a.Path[n-1].Phase == phase && a.Path[n-1].Track == track && a.Path[n-1].End == lo {
			a.Path[n-1].End = hi
		} else {
			a.Path = append(a.Path, PathSegment{Phase: phase, Track: track, Start: lo, End: hi})
		}
	}
	return a
}
