// Package pfs models a PVFS2-like parallel file system: files are striped
// in fixed-size units (64 KB default) across data servers; a metadata
// server handles open/create; clients issue read/write requests carrying
// extent lists (list I/O, paper ref [6]) directly to the data servers.
// Like PVFS2, there is no client-side data cache.
package pfs

import (
	"fmt"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/fs"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// Config tunes the file system.
type Config struct {
	// StripeUnit is the striping unit in bytes (PVFS2 default 64 KB).
	StripeUnit int64
	// WorkersPerServer bounds the number of concurrently served requests
	// per data server.
	WorkersPerServer int
	// RequestCPU is the per-request server processing cost.
	RequestCPU time.Duration
	// HeaderBytes is the fixed size of a request/response header;
	// ExtentDescBytes is the per-extent encoding cost in a list request.
	HeaderBytes     int64
	ExtentDescBytes int64
	// MetaOpCPU is the metadata server's per-operation cost.
	MetaOpCPU time.Duration
	// RequestJitter is the relative half-width of the uniform jitter on
	// RequestCPU (0.5 means [0.5x, 1.5x]). OS and service-time noise is
	// what desynchronizes otherwise lockstepped clients.
	RequestJitter float64
	// ClientDiskOrigins tags disk requests with the requesting client's
	// origin instead of the server's own identity. PVFS2 performs server
	// I/O from the pvfs2-server process, so the kernel elevator sees one
	// origin per server (the default, false); the true setting is an
	// ablation that exposes CFQ's per-process queueing to client identity.
	ClientDiskOrigins bool
	// RequestTimeout, when positive, arms a per-server-request watchdog in
	// the client: a request not answered within the timeout is reissued to
	// the server (the original is abandoned, not cancelled — exactly like a
	// client retry against a stalled server). The timeout doubles per
	// retry. Zero (the default) disables timeouts entirely: clients wait on
	// completion alone.
	RequestTimeout time.Duration
	// MaxRetries bounds reissues per request; after the last retry the
	// client waits indefinitely (progress over liveness guessing).
	MaxRetries int
	// RetryBackoff is slept at each retry and doubles with each subsequent
	// one (bounded exponential backoff). A read sleeps before reissuing; a
	// write reissues to every unacked replica first, then sleeps (DESIGN
	// §10).
	RetryBackoff time.Duration
	// Replicas is the number of copies of every stripe (rack-aware chained
	// placement; see DESIGN §10). 0 or 1 means unreplicated.
	Replicas int
	// WriteQuorum is how many replica acknowledgments complete a write.
	// 0 means majority: Replicas/2 + 1. A crashed replica detected down is
	// excluded from the quorum denominator so writes keep completing.
	WriteQuorum int
	// RackSize is the number of servers per rack; replica ranks are placed
	// RackSize servers apart so one rack failure cannot take out every copy
	// of a stripe. 0 means the paper cluster's 3-per-rack.
	RackSize int
	// DetectDelay is how long after a crash (or recovery) the cluster-wide
	// failure detector updates the client view. It models heartbeat lag:
	// requests issued inside the window are lost and recovered by the
	// watchdog, not the view.
	DetectDelay time.Duration
	// RebuildBandwidth throttles the online rebuild's background copy rate
	// in bytes/second (0 = 32 MiB/s). RebuildChunkBytes is the copy
	// granularity (0 = 1 MiB).
	RebuildBandwidth  int64
	RebuildChunkBytes int64
}

// DefaultConfig matches the paper's PVFS2 2.8.2 setup.
func DefaultConfig() Config {
	return Config{
		StripeUnit:       64 << 10,
		WorkersPerServer: 16,
		RequestCPU:       50 * time.Microsecond,
		HeaderBytes:      256,
		ExtentDescBytes:  16,
		MetaOpCPU:        100 * time.Microsecond,
		RequestJitter:    0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.StripeUnit <= 0:
		return fmt.Errorf("pfs: StripeUnit %d", c.StripeUnit)
	case c.WorkersPerServer <= 0:
		return fmt.Errorf("pfs: WorkersPerServer %d", c.WorkersPerServer)
	case c.RequestCPU < 0 || c.MetaOpCPU < 0:
		return fmt.Errorf("pfs: negative CPU cost")
	case c.HeaderBytes < 0 || c.ExtentDescBytes < 0:
		return fmt.Errorf("pfs: negative encoding size")
	case c.RequestJitter < 0 || c.RequestJitter > 1:
		return fmt.Errorf("pfs: RequestJitter %g", c.RequestJitter)
	case c.RequestTimeout < 0:
		return fmt.Errorf("pfs: RequestTimeout %v", c.RequestTimeout)
	case c.MaxRetries < 0:
		return fmt.Errorf("pfs: MaxRetries %d", c.MaxRetries)
	case c.RetryBackoff < 0:
		return fmt.Errorf("pfs: RetryBackoff %v", c.RetryBackoff)
	case c.Replicas < 0:
		return fmt.Errorf("pfs: Replicas %d", c.Replicas)
	case c.WriteQuorum < 0 || (c.Replicas > 1 && c.WriteQuorum > c.Replicas):
		return fmt.Errorf("pfs: WriteQuorum %d with %d replicas", c.WriteQuorum, c.Replicas)
	case c.RackSize < 0:
		return fmt.Errorf("pfs: RackSize %d", c.RackSize)
	case c.DetectDelay < 0:
		return fmt.Errorf("pfs: DetectDelay %v", c.DetectDelay)
	case c.RebuildBandwidth < 0:
		return fmt.Errorf("pfs: RebuildBandwidth %d", c.RebuildBandwidth)
	case c.RebuildChunkBytes < 0:
		return fmt.Errorf("pfs: RebuildChunkBytes %d", c.RebuildChunkBytes)
	}
	return nil
}

// FileSystem ties the metadata server and data servers together.
type FileSystem struct {
	k       *sim.Kernel
	net     *netsim.Network
	cfg     Config
	servers []*Server
	meta    *MetaServer
	obs     *obs.Collector
	faults  *fault.Injector
	retries int64

	// Replication and crash-tolerance state (see replica.go). offsets maps
	// replica rank -> server-index offset; down and rebuilding are the
	// failure detector's view of each server; viewSig broadcasts on every
	// view change so quorum waiters and failover readers recompute.
	offsets    []int
	down       []bool
	rebuilding []bool
	viewSig    *sim.Signal
	ledger     *rebuildLedger
	tracker    *Tracker
	verCounter int64
	failovers  int64

	// Audit byte ledgers (nil = audit off): logical bytes each server's
	// store served for client requests, and bytes its store moved for
	// replica rebuild copies. Their sum must equal the store's own logical
	// counters at end of run.
	audit        check.Ledger
	auditServed  []int64
	auditRebuild []int64

	// Free lists for the per-operation transfer records. A steady-state
	// client op then allocates nothing: stripe groups, requests, retry
	// records, and the per-server extent lists all cycle through these.
	// Push/pop happens only between parks, so strict alternation is the
	// lock. Recycling is conservative (see putTransfer).
	groupFree []*xferGroup
	reqFree   []*serverReq
	issFree   []*issued
	splitFree [][][]ext.Extent
}

// getGroup pops a recycled stripe group (or allocates the pool's first)
// for the given primary server's extent list, request size and write
// version. Its done signal keeps its waiter-list capacity across reuses,
// so re-arming a wait on it allocates nothing either.
func (fsys *FileSystem) getGroup(primary int, file string, lst []ext.Extent, msg, ver int64) *xferGroup {
	var g *xferGroup
	if n := len(fsys.groupFree); n > 0 {
		g = fsys.groupFree[n-1]
		fsys.groupFree = fsys.groupFree[:n-1]
	} else {
		g = &xferGroup{}
	}
	g.primary, g.file, g.lst, g.msg, g.ver = primary, file, lst, msg, ver
	return g
}

// getServerReq pops a recycled request (or allocates the pool's first).
func (fsys *FileSystem) getServerReq() *serverReq {
	if n := len(fsys.reqFree); n > 0 {
		r := fsys.reqFree[n-1]
		fsys.reqFree = fsys.reqFree[:n-1]
		return r
	}
	return &serverReq{}
}

// getIssued pops a recycled retry record; its attempts slice keeps its
// capacity across reuses.
func (fsys *FileSystem) getIssued() *issued {
	if n := len(fsys.issFree); n > 0 {
		is := fsys.issFree[n-1]
		fsys.issFree = fsys.issFree[:n-1]
		return is
	}
	return &issued{}
}

// getSplitBuf checks out a per-server extent-list buffer for splitInto.
// Concurrent transfers each hold their own buffer until putTransfer; the
// per-server sub-slices keep their capacity across reuses.
func (fsys *FileSystem) getSplitBuf() [][]ext.Extent {
	if n := len(fsys.splitFree); n > 0 {
		b := fsys.splitFree[n-1]
		fsys.splitFree = fsys.splitFree[:n-1]
		return b
	}
	return make([][]ext.Extent, fsys.NumServers())
}

// putTransfer recycles a finished transfer's groups, requests, retry
// records and split buffer — but only when every attempt of every group
// has finished. An unfinished attempt (an abandoned duplicate, a replica
// write still in flight after the quorum, a message lost to a crash) may
// still sit in a server queue or worker, referencing its request, the
// group's done signal and the extent buffer; the whole transfer is then
// left to the garbage collector. The common no-retry op recycles
// everything.
func (fsys *FileSystem) putTransfer(per [][]ext.Extent, groups []*xferGroup) {
	for _, g := range groups {
		if !g.settled() {
			return
		}
	}
	for _, g := range groups {
		for _, is := range g.reps {
			for _, r := range is.attempts {
				*r = serverReq{}
				fsys.reqFree = append(fsys.reqFree, r)
			}
			*is = issued{attempts: is.attempts[:0]}
			fsys.issFree = append(fsys.issFree, is)
		}
		*g = xferGroup{done: g.done, reps: g.reps[:0]}
		fsys.groupFree = append(fsys.groupFree, g)
	}
	for i := range per {
		per[i] = per[i][:0]
	}
	fsys.splitFree = append(fsys.splitFree, per)
}

// Server is one data server.
type Server struct {
	fsys  *FileSystem
	Index int // position in the stripe rotation
	Node  int // network node id
	Store *fs.Store
	queue *sim.Queue[*serverReq]
}

// MetaServer handles open/create and hosts DualPar's EMC daemon (the core
// package attaches it).
type MetaServer struct {
	Node  int
	sizes map[string]int64
}

type serverReq struct {
	file    string
	extents []ext.Extent // server-local byte space
	write   bool
	origin  int
	client  int         // requesting network node
	done    *sim.Signal // the group's completion signal, shared by its attempts
	fin     bool
	rc      obs.Ctx       // originating traced request
	enq     time.Duration // enqueue time (queue-wait annotation)
	ver     int64         // integrity-tracker write version (0 = untracked)
}

// New assembles a file system from per-server stores. serverNodes[i] is the
// network node of data server i.
func New(k *sim.Kernel, net *netsim.Network, cfg Config, metaNode int, serverNodes []int, stores []*fs.Store) *FileSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(serverNodes) == 0 || len(serverNodes) != len(stores) {
		panic("pfs: servers and stores mismatch")
	}
	if cfg.Replicas > len(serverNodes) {
		panic(fmt.Sprintf("pfs: %d replicas on %d servers", cfg.Replicas, len(serverNodes)))
	}
	fsys := &FileSystem{
		k:          k,
		net:        net,
		cfg:        cfg,
		meta:       &MetaServer{Node: metaNode, sizes: make(map[string]int64)},
		offsets:    replicaOffsets(len(serverNodes), cfg.Replicas, cfg.RackSize),
		down:       make([]bool, len(serverNodes)),
		rebuilding: make([]bool, len(serverNodes)),
		viewSig:    k.NewSignal(),
		ledger:     newRebuildLedger(len(serverNodes)),
	}
	for i, node := range serverNodes {
		srv := &Server{
			fsys:  fsys,
			Index: i,
			Node:  node,
			Store: stores[i],
			queue: sim.NewQueue[*serverReq](k),
		}
		fsys.servers = append(fsys.servers, srv)
		for w := 0; w < cfg.WorkersPerServer; w++ {
			track := fmt.Sprintf("server%d/worker%d", i, w)
			k.Spawn("pfs/"+track, func(p *sim.Proc) { srv.workerLoop(p, track) })
		}
	}
	return fsys
}

// Config returns the file system configuration.
func (fsys *FileSystem) Config() Config { return fsys.cfg }

// SetObs attaches the observability collector: traced requests then record
// per-worker StageServer spans.
func (fsys *FileSystem) SetObs(c *obs.Collector) { fsys.obs = c }

// SetAudit attaches the audit ledger and starts per-server byte accounting:
// logical bytes served to clients and logical bytes moved by rebuild copies,
// which together must match each store's own counters once the run drains.
func (fsys *FileSystem) SetAudit(l check.Ledger) {
	fsys.audit = l
	fsys.auditServed = make([]int64, len(fsys.servers))
	fsys.auditRebuild = make([]int64, len(fsys.servers))
}

// AuditServedBytes reports the logical bytes server i's store served for
// client requests since SetAudit (counted whether or not the ack survived a
// crash window — the store moved the bytes either way).
func (fsys *FileSystem) AuditServedBytes(i int) int64 { return fsys.auditServed[i] }

// AuditRebuildBytes reports the logical bytes server i's store read or wrote
// for replica rebuild copies since SetAudit.
func (fsys *FileSystem) AuditRebuildBytes(i int) int64 { return fsys.auditRebuild[i] }

// SetFaults attaches a fault injector; data servers then honor the
// schedule's stall and CPU-slowdown windows. A nil injector is a no-op.
// Crash windows additionally arm the failure detector: DetectDelay after
// each crash or recovery the client view updates, and a recovery kicks off
// the online rebuild.
func (fsys *FileSystem) SetFaults(inj *fault.Injector) {
	fsys.faults = inj
	if inj.HasCrashWindows() {
		inj.OnServerState(func(server int, up bool, at time.Duration) {
			if server < 0 || server >= len(fsys.servers) {
				return
			}
			fsys.k.After(fsys.detectDelay(), func() { fsys.setDown(server, !up) })
		})
	}
}

// Retries reports how many client request reissues the timeout watchdog
// performed.
func (fsys *FileSystem) Retries() int64 { return fsys.retries }

// Failovers reports how many read reissues went to a different replica
// than the previous attempt.
func (fsys *FileSystem) Failovers() int64 { return fsys.failovers }

// Alive reports the failure detector's view of a data server: false from
// DetectDelay after a crash until DetectDelay after its recovery. EMC uses
// it to drop dead servers from the seek medians, CRM to route around them.
func (fsys *FileSystem) Alive(server int) bool {
	return server >= 0 && server < len(fsys.down) && !fsys.down[server]
}

// FileSize reports the size currently recorded at the metadata server (the
// high-water mark of creates and completed writes; 0 for unknown files).
// Unlike Client.Open this is a zero-cost peek for co-located control
// planes such as CRM, which conceptually runs beside the metadata server.
func (fsys *FileSystem) FileSize(name string) int64 { return fsys.meta.sizes[name] }

// Obs returns the attached collector (nil when tracing is off).
func (fsys *FileSystem) Obs() *obs.Collector { return fsys.obs }

// Servers returns the data servers.
func (fsys *FileSystem) Servers() []*Server { return fsys.servers }

// Meta returns the metadata server.
func (fsys *FileSystem) Meta() *MetaServer { return fsys.meta }

// NumServers reports the stripe width.
func (fsys *FileSystem) NumServers() int { return len(fsys.servers) }

// serverOriginBase keeps server-process origins clear of client origins.
const serverOriginBase = 1 << 21

// DiskOrigin is the origin tag this server's disk requests carry for a
// request from the given client origin.
func (srv *Server) DiskOrigin(clientOrigin int) int {
	if srv.fsys.cfg.ClientDiskOrigins {
		return clientOrigin
	}
	return serverOriginBase + srv.Index
}

func (srv *Server) workerLoop(p *sim.Proc, track string) {
	fsys := srv.fsys
	for {
		req := srv.queue.Get(p)
		start := p.Now()
		// A crash-stop window voids the in-flight queue: anything enqueued
		// before or during the crash is dropped unanswered, and missed
		// writes are noted for the online rebuild.
		if fsys.faults.CrashedDuring(srv.Index, req.enq, p.Now()) {
			srv.dropCrashed(req, p.Now())
			continue
		}
		// An active stall window freezes service: the request sits in the
		// worker until the window closes (the queue keeps filling behind it).
		if until := fsys.faults.StallUntil(srv.Index, p.Now()); until > p.Now() {
			p.Sleep(until - p.Now())
		}
		cpu := fsys.cfg.RequestCPU
		if j := fsys.cfg.RequestJitter; j > 0 && cpu > 0 {
			f := 1 + (fsys.k.Rand().Float64()*2-1)*j
			cpu = time.Duration(float64(cpu) * f)
		}
		if f := fsys.faults.ServerFactor(srv.Index, p.Now()); f > 1 {
			cpu = time.Duration(float64(cpu) * f)
		}
		p.Sleep(cpu)
		origin := srv.DiskOrigin(req.origin)
		if req.write {
			srv.Store.WriteMulti(p, req.file, req.extents, origin, req.rc)
		} else {
			srv.Store.ReadMulti(p, req.file, req.extents, origin, req.rc)
		}
		if fsys.auditServed != nil {
			// Counted right after the store call, before the post-service
			// crash check: a dropped ack does not undo the bytes the store
			// already moved (and already counted on its side).
			fsys.auditServed[srv.Index] += ext.Total(req.extents)
		}
		// A crash that struck mid-service died holding the answer: the
		// write may have reached the platter but no ack leaves the box, so
		// the replica is treated as having missed it (rebuild re-copies).
		if fsys.faults.CrashedDuring(srv.Index, start, p.Now()) {
			srv.dropCrashed(req, p.Now())
			continue
		}
		if req.write {
			fsys.tracker.apply(srv.Index, req.file, req.extents, req.ver)
			// Small acknowledgment back to the client.
			fsys.net.Send(p, srv.Node, req.client, fsys.cfg.HeaderBytes)
		} else {
			fsys.net.Send(p, srv.Node, req.client, fsys.cfg.HeaderBytes+ext.Total(req.extents))
		}
		if req.rc.Traced() {
			rw := "read"
			if req.write {
				rw = "write"
			}
			fsys.obs.Span(req.rc.ID, obs.StageServer, track, start, p.Now(),
				obs.Str("rw", rw), obs.I64("bytes", ext.Total(req.extents)),
				obs.I64("extents", int64(len(req.extents))),
				obs.I64("queue_ns", int64(start-req.enq)))
		}
		req.fin = true
		req.done.Broadcast()
	}
}

// dropCrashed voids a request lost to a crash-stop window: no ack is sent
// (the client's watchdog recovers), and a voided write is noted in the
// rebuild ledger so the recovering replica re-copies it from a peer.
func (srv *Server) dropCrashed(req *serverReq, now time.Duration) {
	fsys := srv.fsys
	if req.write {
		fsys.ledger.add(srv.Index, req.file, req.extents)
	}
	rw := "read"
	if req.write {
		rw = "write"
	}
	fsys.obs.Instant("pfs.lost", fmt.Sprintf("server%d", srv.Index), now,
		obs.Str("rw", rw), obs.Str("file", req.file),
		obs.I64("bytes", ext.Total(req.extents)))
}

// split maps file-global extents to per-server local extent lists.
func (fsys *FileSystem) split(extents []ext.Extent) [][]ext.Extent {
	out := make([][]ext.Extent, fsys.NumServers())
	fsys.splitInto(out, extents)
	return out
}

// splitInto is split appending into a caller-provided buffer (len =
// NumServers, every sub-slice empty), so the hot path can reuse checked-out
// buffers instead of allocating per operation.
func (fsys *FileSystem) splitInto(out [][]ext.Extent, extents []ext.Extent) {
	n := int64(fsys.NumServers())
	unit := fsys.cfg.StripeUnit
	ext.VisitSplit(extents, unit, func(piece ext.Extent) {
		stripe := piece.Off / unit
		srv := stripe % n
		local := (stripe/n)*unit + piece.Off%unit
		lst := out[srv]
		if len(lst) > 0 && lst[len(lst)-1].End() == local {
			lst[len(lst)-1].Len += piece.Len
			out[srv] = lst
		} else {
			out[srv] = append(lst, ext.Extent{Off: local, Len: piece.Len})
		}
	})
}

// LocalOffset translates a file-global offset to (server index, local
// offset) — exposed for layout-aware tooling and tests.
func (fsys *FileSystem) LocalOffset(off int64) (server int, local int64) {
	unit := fsys.cfg.StripeUnit
	stripe := off / unit
	n := int64(fsys.NumServers())
	return int(stripe % n), (stripe/n)*unit + off%unit
}
