package cluster

import (
	"testing"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/check"
	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
	"dualpar/internal/tenant"
)

func TestDefaultShapeMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DataServers != 9 {
		t.Fatalf("data servers = %d, want 9", cfg.DataServers)
	}
	if cfg.DisksPerRAID != 2 {
		t.Fatalf("disks per RAID = %d, want 2", cfg.DisksPerRAID)
	}
	if cfg.PFS.StripeUnit != 64<<10 {
		t.Fatalf("stripe unit = %d, want 64K", cfg.PFS.StripeUnit)
	}
}

// TestConfigValidate checks the shape and sub-config rules New enforces are
// reported as errors, so callers can reject bad input without a panic.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"no servers":       func(c *Config) { c.DataServers = 0 },
		"no compute nodes": func(c *Config) { c.ComputeNodes = 0 },
		"no disks":         func(c *Config) { c.DisksPerRAID = 0 },
		"replicas>servers": func(c *Config) { c.DataServers = 3; c.PFS.Replicas = 4 },
		"bad engine":       func(c *Config) { c.FS.Engine = "bogus" },
		"bad pfs":          func(c *Config) { c.PFS.Replicas = -1 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestClusterAssembles(t *testing.T) {
	cl := New(DefaultConfig())
	if len(cl.Stores) != 9 {
		t.Fatalf("stores = %d", len(cl.Stores))
	}
	if cl.FS.NumServers() != 9 {
		t.Fatalf("pfs servers = %d", cl.FS.NumServers())
	}
	if len(cl.ComputeNodes()) != 8 || cl.ComputeNodes()[0] != ComputeNodeBase {
		t.Fatalf("compute nodes = %v", cl.ComputeNodes())
	}
	if cl.MetaNode() != 0 {
		t.Fatalf("meta node = %d", cl.MetaNode())
	}
}

func TestEndToEndReadThroughCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 3
	cl := New(cfg)
	client := cl.FS.Client(ComputeNodeBase)
	var took time.Duration
	cl.K.Spawn("client", func(p *sim.Proc) {
		client.Create(p, "f", 8<<20)
		t0 := p.Now()
		client.Read(p, "f", []ext.Extent{{Off: 0, Len: 8 << 20}}, 1, obs.Ctx{})
		took = p.Now() - t0
	})
	cl.K.RunUntil(time.Minute)
	if took <= 0 {
		t.Fatalf("read did not complete")
	}
	// 8MB at GigE client downlink ~117MB/s floor is ~68ms; disk adds more.
	if took > 2*time.Second {
		t.Fatalf("8MB read took %v, implausibly slow", took)
	}
	st := cl.ServerStats()
	if st.BytesRead < 8<<20 {
		t.Fatalf("server stats read bytes = %d", st.BytesRead)
	}
}

func TestSchedulerFactoryRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 2
	calls := 0
	cfg.NewScheduler = func() iosched.Algorithm {
		calls++
		return iosched.NewNOOP()
	}
	cl := New(cfg)
	if calls != 2 {
		t.Fatalf("scheduler factory called %d times, want 2", calls)
	}
	if cl.Stores[0].Dispatcher().Algorithm().Name() != "noop" {
		t.Fatalf("scheduler = %s", cl.Stores[0].Dispatcher().Algorithm().Name())
	}
}

func TestTraceServersEnablesTraces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 2
	cfg.TraceServers = true
	cl := New(cfg)
	for i, st := range cl.Stores {
		if st.Device().Trace() == nil {
			t.Fatalf("server %d has no trace", i)
		}
	}
}

func TestSingleDiskConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 1
	cfg.DisksPerRAID = 1
	cl := New(cfg)
	if cl.Stores[0].Device().Sectors() != cfg.Disk.Sectors {
		t.Fatalf("single-disk capacity mismatch")
	}
}

// smallConfig is a three-server cluster shared by two tenants.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DataServers = 3
	tc := tenant.DefaultConfig()
	tc.Tenants = 2
	cfg.Tenancy = &tc
	return cfg
}

// readWrite writes then reads one 1 MiB file through the cluster's PFS,
// traced under rc, and runs the kernel until both calls return.
func readWrite(t *testing.T, cl *Cluster, rc obs.Ctx) {
	t.Helper()
	client := cl.FS.Client(ComputeNodeBase)
	done := false
	cl.K.Spawn("client", func(p *sim.Proc) {
		client.Create(p, "f", 1<<20)
		whole := []ext.Extent{{Off: 0, Len: 1 << 20}}
		if err := client.Write(p, "f", whole, 1, rc); err != nil {
			t.Error(err)
		}
		if err := client.Read(p, "f", whole, 1, rc); err != nil {
			t.Error(err)
		}
		done = true
	})
	cl.K.RunUntil(time.Minute)
	if !done {
		t.Fatal("client I/O did not complete")
	}
}

// TestEnableObsReachesEveryLayer: a collector attached after New must see
// the network, the servers, the disks, the page cache and the arbiter, as
// if it had been set in the Config; a nil collector leaves tracing off.
func TestEnableObsReachesEveryLayer(t *testing.T) {
	cl := New(smallConfig())
	cl.EnableObs(nil)
	if cl.Obs() != nil || cl.FS.Obs() != nil {
		t.Fatal("EnableObs(nil) attached a collector")
	}
	col := obs.NewCollector()
	cl.EnableObs(col)
	if cl.Obs() != col || cl.FS.Obs() != col || cl.Config().Obs != col {
		t.Fatal("the cluster does not report the attached collector")
	}
	readWrite(t, cl, col.StartRequest("client"))
	g := cl.Arbiter().TryAcquire(0, nil)
	if g == nil {
		t.Fatal("an idle arbiter denied a grant")
	}
	g.Release()

	stages := map[obs.Stage]int{}
	for _, s := range col.Spans() {
		stages[s.Stage]++
	}
	for _, st := range []obs.Stage{obs.StageNet, obs.StageServer, obs.StageDisk} {
		if stages[st] == 0 {
			t.Errorf("no %s spans recorded; stages seen: %v", st, stages)
		}
	}
	grants := 0
	for _, in := range col.Instants() {
		if in.Name == "tenant.grant" {
			grants++
		}
	}
	if grants != 1 {
		t.Errorf("%d tenant.grant instants, want 1 from the arbiter", grants)
	}
	m := col.Metrics()
	if m.Counter("pagecache.hit").Value()+m.Counter("pagecache.miss").Value() == 0 {
		t.Error("the stores counted no page-cache lookups")
	}
}

// TestEnableAuditProbesHold: on a short clean run every registered oracle
// (per server: disk and store conservation and the engine layout; plus the
// arbiter's grant ledger) holds, and a grant still held at the end is
// caught by the arbiter's leak probe.
func TestEnableAuditProbesHold(t *testing.T) {
	cl := New(smallConfig())
	aud := check.New(1, "cluster")
	aud.SetArtifactDir(t.TempDir())
	cl.EnableAudit(aud)
	if min := 3*len(cl.Stores) + 1; aud.Oracles() < min {
		t.Fatalf("%d oracles registered, want at least %d", aud.Oracles(), min)
	}
	readWrite(t, cl, obs.Ctx{})
	aud.RunFinalProbes()
	if err := aud.Err(); err != nil {
		t.Fatalf("clean run violated an invariant: %v", err)
	}
	if cl.Arbiter().TryAcquire(1, nil) == nil {
		t.Fatal("an idle arbiter denied a grant")
	}
	aud.RunFinalProbes()
	if aud.Err() == nil {
		t.Error("a grant held at the end of the run passed the leak probe")
	}
}

// TestAccessorsFollowConfig: the fault injector, burst tier, arbiter and
// collector exist exactly when their Config field is set.
func TestAccessorsFollowConfig(t *testing.T) {
	plain := New(DefaultConfig())
	if plain.Faults() != nil || plain.Burst() != nil || plain.Arbiter() != nil || plain.Obs() != nil {
		t.Error("a default cluster built an optional subsystem")
	}
	cfg := smallConfig()
	cfg.Faults = &fault.Schedule{Windows: []fault.Window{{Kind: fault.DiskSlow, Target: 1, Factor: 2}}}
	bc := burst.DefaultConfig()
	cfg.Burst = &bc
	cfg.Obs = obs.NewCollector()
	cl := New(cfg)
	if cl.Faults() == nil || cl.Burst() == nil || cl.Arbiter() == nil || cl.Obs() != cfg.Obs {
		t.Errorf("configured subsystems missing: faults %v, burst %v, arbiter %v, obs %v",
			cl.Faults() != nil, cl.Burst() != nil, cl.Arbiter() != nil, cl.Obs() != nil)
	}
	if cl.Arbiter().Tenants() != 2 || cl.Config().DataServers != 3 {
		t.Errorf("cluster does not carry its config: %d tenants, %d servers",
			cl.Arbiter().Tenants(), cl.Config().DataServers)
	}
}

// TestNewBranches builds the SSD, fault-wrapped and burst variants and runs
// I/O through each: every data server gets the configured device, a fault
// schedule wraps each device, and a configured arbiter records traces when
// the collector is set at construction.
func TestNewBranches(t *testing.T) {
	t.Run("ssd", func(t *testing.T) {
		cfg := smallConfig()
		sp := disk.DefaultSSDParams()
		cfg.SSD = &sp
		cfg.TraceServers = true
		cl := New(cfg)
		for i, st := range cl.Stores {
			if _, ok := st.Device().(*disk.SSD); !ok {
				t.Fatalf("server %d device is %T, want *disk.SSD", i, st.Device())
			}
			if st.Device().Trace() == nil {
				t.Fatalf("server %d SSD has no trace", i)
			}
		}
		readWrite(t, cl, obs.Ctx{})
		if cl.ServerStats().BytesRead == 0 {
			t.Error("SSD cluster served no reads")
		}
	})
	t.Run("faults", func(t *testing.T) {
		cfg := smallConfig()
		cfg.Faults = &fault.Schedule{Windows: []fault.Window{{Kind: fault.DiskSlow, Target: 1, Factor: 4}}}
		cl := New(cfg)
		for i, st := range cl.Stores {
			if _, ok := st.Device().(*fault.Device); !ok {
				t.Fatalf("server %d device is %T, want *fault.Device", i, st.Device())
			}
		}
		readWrite(t, cl, obs.Ctx{})
	})
	t.Run("burst+tenancy+obs", func(t *testing.T) {
		cfg := smallConfig()
		bc := burst.DefaultConfig()
		cfg.Burst = &bc
		cfg.Obs = obs.NewCollector()
		cl := New(cfg)
		if g := cl.Arbiter().TryAcquire(0, nil); g != nil {
			g.Release()
		}
		if len(cfg.Obs.Instants()) == 0 {
			t.Error("arbiter built with a collector recorded no instants")
		}
		readWrite(t, cl, cfg.Obs.StartRequest("client"))
	})
}
