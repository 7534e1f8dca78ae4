package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memverify/internal/core"
	"memverify/internal/integrity"
	"memverify/internal/persist"
	"memverify/internal/service"
	"memverify/internal/service/client"
	"memverify/internal/shard"
	"memverify/internal/telemetry"
	"memverify/internal/trace"
)

// The store workloads' make-up. store-local and store-remote share
// uniformMix (and so their op stream); checkpoint-hot uses hotMix.
var (
	uniformMix = mix{scheme: "c", maxLen: 256, writeFrac: 0.5, batchOps: 16,
		roundBatches: 256, detRounds: 8, warmBatches: 512}
	hotMix = mix{scheme: "i", zipf: true, maxLen: 64, writeFrac: 0.7, batchOps: 16,
		roundBatches: 4096, detRounds: 2, warmBatches: 1024}
)

const (
	storeShards    = 2
	protectedBytes = 8 << 20
	l2Bytes        = 256 << 10
	tenantName     = "bench"
)

type storeKind int

const (
	kindLocal storeKind = iota
	kindRemote
	kindCheckpoint
)

// storeConfig is the tenant/store configuration every store workload
// runs: 2 shards over 8 MiB, a 256 KiB L2 per shard, fnv128 digests
// computed in full, the record violation policy.
func storeConfig(m mix, seed int64) shard.Config {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.Scheme(m.scheme)
	cfg.Benchmark = trace.Uniform("perfbench", 32<<10)
	cfg.Benchmark.CodeSet = 4 << 10
	cfg.ProtectedBytes = protectedBytes
	cfg.L2Size = l2Bytes
	cfg.HashMode = "full"
	cfg.HashAlg = "fnv128"
	cfg.ViolationPolicy = "record"
	cfg.Functional = true
	cfg.Seed = uint64(seed)
	cfg.ChunkBlocks = 1
	if cfg.Scheme == core.SchemeMulti || cfg.Scheme == core.SchemeIncr {
		cfg.ChunkBlocks = 2
	}
	return shard.Config{Machine: cfg, Shards: storeShards}
}

// detKeys are the simulated counters every store workload takes over its
// deterministic window. They repeat exactly for a seed.
var detKeys = []string{
	"cpu.cycles", "integrity.checks", "l2.data_accesses", "l2.data_misses",
	"l2.hash_accesses", "l2.hash_misses", "integrity.extra_block_reads",
	"integrity.extra_writeback_reads", "bus.data_bytes", "bus.hash_bytes",
	"bus.busy_cycles", "hash.bytes", "dram.reads", "dram.writes",
}

func pickCounters(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64, len(detKeys))
	for _, k := range detKeys {
		out[k] = float64(reg.Counter(k))
	}
	return out
}

func subCounters(a, b map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// diffCounters names the first key on which a and b differ.
func diffCounters(a, b map[string]float64) error {
	for _, k := range detKeys {
		if a[k] != b[k] {
			return fmt.Errorf("%s: %.0f vs %.0f", k, a[k], b[k])
		}
	}
	return nil
}

// storeEnv is one set-up instance of a store workload.
type storeEnv struct {
	kind storeKind
	m    mix
	scfg shard.Config
	st   *stream
	b    batcher // the closed-loop client's reusable batch

	store *shard.Store // kindLocal, kindCheckpoint

	svc    *service.Service // kindRemote
	srv    *http.Server
	served chan struct{}
	cl     *client.Client
	probe  *handlerProbe // traced remote runs only
	conns  atomic.Int64

	ps    *persist.Store // kindCheckpoint
	pfs   *countingFS
	popts persist.Options

	// viol counts violations per shard as the program reports them.
	viol [storeShards]atomic.Int64
}

// setupStore builds the store (or service, or persisted store), fills the
// region and warms it with untimed traffic of the workload's own mix.
func setupStore(kind storeKind, m mix, seed int64, workdir string, idx int, traced bool) (*storeEnv, error) {
	e := &storeEnv{kind: kind, m: m, scfg: storeConfig(m, seed)}
	e.scfg.OnViolation = func(sh int, _ *integrity.ViolationError, _ bool) { e.viol[sh].Add(1) }
	if err := e.open(workdir, idx, traced); err != nil {
		e.close()
		return nil, err
	}
	if err := e.st.prefill(e.b); err != nil {
		e.close()
		return nil, err
	}
	buf := newBatchBuf(m.batchOps, m.maxLen)
	for i := 0; i < m.warmBatches; i++ {
		e.st.fill(buf)
		buf.submit(e.b)
		if err := e.b.Wait(); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := buf.check(); err != nil {
			e.close()
			return nil, checkf("warm-up: %v", err)
		}
	}
	if e.ps != nil {
		// Seal the filled, warmed state so every timed checkpoint is a
		// steady-state one.
		if _, err := e.ps.Checkpoint(persist.StoreSource{S: e.store}); err != nil {
			e.close()
			return nil, fmt.Errorf("initial checkpoint: %w", err)
		}
	}
	return e, nil
}

func (e *storeEnv) open(workdir string, idx int, traced bool) error {
	var span uint64
	if e.kind == kindRemote {
		svc, err := service.New(service.Config{
			Tenants:     []service.TenantConfig{{Name: tenantName, Store: e.scfg}},
			AllowTamper: true,
		})
		if err != nil {
			return err
		}
		e.svc = svc
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		h := svc.Handler()
		if traced {
			e.probe = &handlerProbe{next: h}
			h = e.probe
		}
		e.srv = &http.Server{Handler: h, ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				e.conns.Add(1)
			}
		}}
		e.served = make(chan struct{})
		go func() {
			defer close(e.served)
			_ = e.srv.Serve(ln) // returns ErrServerClosed once close runs
		}()
		cl, err := client.Dial("http://"+ln.Addr().String(), tenantName)
		if err != nil {
			return err
		}
		e.cl, e.b, span = cl, cl.NewBatch(), cl.Span()
	} else {
		s, err := shard.New(e.scfg)
		if err != nil {
			return err
		}
		e.store, e.b, span = s, s.NewBatch(), s.Span()
	}
	if e.kind == kindCheckpoint {
		e.pfs = &countingFS{}
		e.popts = persist.Options{
			Dir:        filepath.Join(workdir, fmt.Sprintf("ckpt-%d", idx)),
			AnchorPath: filepath.Join(workdir, fmt.Sprintf("anchor-%d", idx)),
			FS:         e.pfs,
		}
		ps, err := persist.Open(e.popts)
		if err != nil {
			return err
		}
		e.ps = ps
	}
	e.st = newStream(e.m, int64(e.scfg.Machine.Seed), span)
	return nil
}

// close releases everything the instance holds and waits for the server
// goroutine; safe on a partly built instance.
func (e *storeEnv) close() {
	if e.cl != nil {
		e.cl.Close()
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	if e.svc != nil {
		e.svc.Close()
	}
	if e.ps != nil {
		e.ps.Close()
		e.ps = nil
	}
	if e.store != nil {
		e.store.Close()
	}
}

// counters snapshots the simulated counters of every shard.
func (e *storeEnv) counters() map[string]float64 {
	reg := telemetry.NewRegistry()
	if e.svc != nil {
		e.svc.Fill(reg)
	} else {
		e.store.FillRegistry(reg)
	}
	return pickCounters(reg)
}

// timedRun is what one timed phase measured.
type timedRun struct {
	ops     uint64
	batches uint64
	rounds  int
	rates   []float64       // per round: ops per host second, checkpoint included
	lat     []time.Duration // per batch, submit to Wait
	wire    []time.Duration // traced remote: client batch time minus handler time

	// Over the deterministic window (the first detRounds rounds).
	det          map[string]float64
	detOps       uint64
	detUserBytes uint64
	detDiskBytes uint64
	detSyncs     uint64

	ckpt   []time.Duration // per checkpoint
	ckptIO []time.Duration // per checkpoint, inside persist.FS Write/Sync
}

// timed runs whole rounds of the closed-loop client until seconds have
// passed and the deterministic window is complete; checkpoint-hot seals
// a checkpoint at the end of every round.
func (e *storeEnv) timed(seconds float64, tr *tracer) (*timedRun, error) {
	buf := newBatchBuf(e.m.batchOps, e.m.maxLen)
	r := &timedRun{lat: make([]time.Duration, 0, 1<<16)}
	c0 := e.counters()
	ops0, bytes0 := e.st.ops, e.st.bytesWritten
	var disk0, sync0 uint64
	if e.pfs != nil {
		disk0, sync0, _ = e.pfs.snapshot()
	}
	if e.probe != nil {
		e.probe.reset()
	}
	start := time.Now()
	defer func() { r.ops = e.st.ops - ops0 }()
	for {
		roundStart, roundOps := time.Now(), e.st.ops
		for i := 0; i < e.m.roundBatches; i++ {
			e.st.fill(buf)
			r.batches++
			var sid uint64
			if e.probe != nil {
				sid = tr.reserve()
				e.probe.begin(r.batches, sid)
			}
			t0 := time.Now()
			buf.submit(e.b)
			err := e.b.Wait()
			t1 := time.Now()
			if err != nil {
				return r, fmt.Errorf("batch %d: %w", r.batches, err)
			}
			r.lat = append(r.lat, t1.Sub(t0))
			if tr != nil {
				if e.probe != nil {
					tr.addWithID(sid, spanClientBatch, t0, t1, 0, r.batches, tidClient)
					r.wire = append(r.wire, t1.Sub(t0)-e.probe.batchTime())
				} else {
					tr.add(spanShardBatch, t0, t1, 0, r.batches, tidClient)
				}
			}
			if err := buf.check(); err != nil {
				return r, checkf("batch %d: %v", r.batches, err)
			}
		}
		if e.ps != nil {
			_, _, io0 := e.pfs.snapshot()
			t0 := time.Now()
			if _, err := e.ps.Checkpoint(persist.StoreSource{S: e.store}); err != nil {
				return r, fmt.Errorf("checkpoint: %w", err)
			}
			t1 := time.Now()
			_, _, io1 := e.pfs.snapshot()
			r.ckpt = append(r.ckpt, t1.Sub(t0))
			r.ckptIO = append(r.ckptIO, io1-io0)
			tr.add(spanCheckpoint, t0, t1, 0, r.batches, tidPersist)
		}
		r.rates = append(r.rates, float64(e.st.ops-roundOps)/time.Since(roundStart).Seconds())
		r.rounds++
		if r.rounds == e.m.detRounds {
			r.det = subCounters(e.counters(), c0)
			r.detOps, r.detUserBytes = e.st.ops-ops0, e.st.bytesWritten-bytes0
			if e.pfs != nil {
				disk, syncs, _ := e.pfs.snapshot()
				r.detDiskBytes, r.detSyncs = disk-disk0, syncs-sync0
			}
		}
		if r.rounds >= e.m.detRounds && time.Since(start).Seconds() >= seconds {
			return r, nil
		}
	}
}

// verify re-reads the whole region through the verification engine.
func (e *storeEnv) verify() error {
	if e.cl != nil {
		return e.cl.Verify()
	}
	return e.store.VerifyAll()
}

// checkDetection requires a clean VerifyAll on a clean store, then
// corrupts one protected block per shard (through the adversary locally,
// the tamper endpoint remotely) and requires VerifyAll to report every
// corruption on its own shard. A change that speeds the store up by not
// verifying fails here.
func (e *storeEnv) checkDetection() error {
	if err := e.verify(); err != nil {
		return checkf("clean VerifyAll failed: %v", err)
	}
	for sh := range e.viol {
		if v := e.viol[sh].Load(); v != 0 {
			return checkf("shard %d reported %d violations on clean traffic", sh, v)
		}
	}
	for sh := 0; sh < storeShards; sh++ {
		off := uint64(sh+1) * 4096 // shard-local offset of the corrupted byte
		if e.cl != nil {
			if err := e.cl.Tamper(sh, off, 0xFF); err != nil {
				return fmt.Errorf("tamper shard %d: %w", sh, err)
			}
			continue
		}
		e.store.WithShard(sh, func(m *core.Machine) {
			m.EvictProtected()
			m.Adversary().Corrupt(m.ProgAddr(off), 0xFF)
		})
	}
	err := e.verify()
	if e.cl != nil && err == nil {
		return checkf("remote verification accepted a tampered region")
	}
	for sh := range e.viol {
		if e.viol[sh].Load() == 0 {
			return checkf("corruption of shard %d went undetected", sh)
		}
	}
	return nil
}

// checkRecovery closes the checkpointed store, recovers it with
// persist.RecoverStore and requires a recovered-clean outcome whose bytes
// all match the mirror as of the last sealed checkpoint (the timed phase
// ends with one). It returns the recovery time; the recovered store
// replaces the closed one so the detection check runs on it.
func (e *storeEnv) checkRecovery(tr *tracer) (time.Duration, error) {
	if err := e.ps.Close(); err != nil {
		return 0, err
	}
	e.ps = nil
	e.store.Close()
	for sh := range e.viol {
		e.viol[sh].Store(0)
	}
	t0 := time.Now()
	s, rec, err := persist.RecoverStore(e.popts, e.scfg)
	t1 := time.Now()
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	tr.add(spanRecovery, t0, t1, 0, 0, tidPersist)
	e.store = s
	if rec.Outcome != persist.OutcomeClean {
		return 0, checkf("recovery outcome %s (%s), want %s", rec.Outcome, rec.Detail, persist.OutcomeClean)
	}
	got := make([]byte, len(e.st.mirror))
	const chunk = 64 << 10
	b := s.NewBatch()
	for off := 0; off < len(got); off += chunk {
		b.Load(uint64(off), got[off:min(off+chunk, len(got))])
	}
	if err := b.Wait(); err != nil {
		return 0, fmt.Errorf("reading the recovered store: %w", err)
	}
	for i := range got {
		if got[i] != e.st.mirror[i] {
			return 0, checkf("recovered byte at offset %d is %#x, the last checkpoint held %#x", i, got[i], e.st.mirror[i])
		}
	}
	return t1.Sub(t0), nil
}

// handlerProbe wraps Service.Handler() in traced remote runs: it times
// every batch request, counts requests and HTTP body bytes both ways and
// records one span per request under the client batch that sent it.
type handlerProbe struct {
	next http.Handler
	tr   *tracer

	mu        sync.Mutex
	batch     uint64 // the client batch in flight (one closed-loop client)
	parent    uint64
	cur       time.Duration // handler time spent on that batch so far
	requests  uint64
	wireBytes uint64
	handler   []time.Duration
}

func (p *handlerProbe) reset() {
	p.mu.Lock()
	p.requests, p.wireBytes, p.handler = 0, 0, p.handler[:0]
	p.mu.Unlock()
}

func (p *handlerProbe) begin(batch, parent uint64) {
	p.mu.Lock()
	p.batch, p.parent, p.cur = batch, parent, 0
	p.mu.Unlock()
}

// batchTime is the handler time of the batch begun last; the response
// only completes after ServeHTTP below has returned, so once the
// client's Wait returns every request of the batch is accounted.
func (p *handlerProbe) batchTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

func (p *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasSuffix(r.URL.Path, "/batch") {
		p.next.ServeHTTP(w, r)
		return
	}
	body := &countingBody{ReadCloser: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	t0 := time.Now()
	p.next.ServeHTTP(cw, r)
	t1 := time.Now()
	p.mu.Lock()
	d := t1.Sub(t0)
	p.cur += d
	p.requests++
	p.wireBytes += body.n + cw.n
	p.handler = append(p.handler, d)
	batch, parent := p.batch, p.parent
	p.mu.Unlock()
	p.tr.add(spanHandler, t0, t1, parent, batch, tidServer)
}

type countingBody struct {
	io.ReadCloser
	n uint64
}

func (c *countingBody) Read(b []byte) (int, error) {
	n, err := c.ReadCloser.Read(b)
	c.n += uint64(n)
	return n, err
}

type countingWriter struct {
	http.ResponseWriter
	n uint64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += uint64(n)
	return n, err
}

// replayBatcher applies batches straight to one core.Machine per shard,
// routed and split at shard boundaries exactly as shard.Store routes
// them, timing every engine call when timed is set.
type replayBatcher struct {
	ms        []*core.Machine
	shardSpan uint64
	timed     bool
	tr        *tracer
	batch     uint64
	loads     []time.Duration
	stores    []time.Duration
	err       error
}

func (r *replayBatcher) Load(off uint64, p []byte)  { r.do(off, p, false) }
func (r *replayBatcher) Store(off uint64, p []byte) { r.do(off, p, true) }

func (r *replayBatcher) Wait() error {
	err := r.err
	r.err = nil
	return err
}

func (r *replayBatcher) do(off uint64, p []byte, write bool) {
	for len(p) > 0 {
		sh := off / r.shardSpan
		local := off - sh*r.shardSpan
		n := min(r.shardSpan-local, uint64(len(p)))
		m := r.ms[sh]
		t0 := time.Now()
		var err error
		if write {
			err = m.StoreBytes(local, p[:n])
		} else {
			err = m.LoadBytes(local, p[:n])
		}
		if r.timed {
			t1 := time.Now()
			if write {
				r.stores = append(r.stores, t1.Sub(t0))
				r.tr.add(spanEngineStore, t0, t1, 0, r.batch, tidEngine)
			} else {
				r.loads = append(r.loads, t1.Sub(t0))
				r.tr.add(spanEngineLoad, t0, t1, 0, r.batch, tidEngine)
			}
		}
		if err != nil && r.err == nil {
			r.err = err
		}
		off += n
		p = p[n:]
	}
}

// replayRun is the engine replay's result.
type replayRun struct {
	loads, stores []time.Duration
	det           map[string]float64
	ops           uint64
}

// engineReplay replays a store workload's stream (pre-fill, warm-up and
// the deterministic window) into one core.Machine per shard, timing
// Machine.LoadBytes/StoreBytes over the window. Its counters must equal
// the store's: the shard layer adds routing and queues, not simulated
// work. flushRounds mirrors checkpoint-hot, whose checkpoints flush every
// machine after set-up and after each round.
func engineReplay(m mix, scfg shard.Config, flushRounds bool, tr *tracer) (*replayRun, error) {
	per := scfg.Machine
	per.ProtectedBytes /= uint64(scfg.Shards)
	rb := &replayBatcher{ms: make([]*core.Machine, scfg.Shards), tr: tr}
	for i := range rb.ms {
		mc, err := core.NewMachine(per)
		if err != nil {
			return nil, err
		}
		rb.ms[i] = mc
	}
	rb.shardSpan = rb.ms[0].ProgSpan()
	st := newStream(m, int64(per.Seed), rb.shardSpan*uint64(len(rb.ms)))
	if err := st.prefill(rb); err != nil {
		return nil, err
	}
	flush := func() {
		if flushRounds {
			for _, mc := range rb.ms {
				mc.Flush()
			}
		}
	}
	buf := newBatchBuf(m.batchOps, m.maxLen)
	batch := func() error {
		st.fill(buf)
		buf.submit(rb)
		if err := rb.Wait(); err != nil {
			return err
		}
		return buf.check()
	}
	for i := 0; i < m.warmBatches; i++ {
		if err := batch(); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	flush()
	c0 := machineCounters(rb.ms)
	ops0 := st.ops
	rb.timed = true
	for round := 0; round < m.detRounds; round++ {
		for i := 0; i < m.roundBatches; i++ {
			rb.batch++
			if err := batch(); err != nil {
				return nil, fmt.Errorf("replay: %w", err)
			}
		}
		flush()
	}
	return &replayRun{loads: rb.loads, stores: rb.stores, det: subCounters(machineCounters(rb.ms), c0),
		ops: st.ops - ops0}, nil
}

func machineCounters(ms []*core.Machine) map[string]float64 {
	reg := telemetry.NewRegistry()
	for _, m := range ms {
		mt := m.Snapshot()
		m.FillRegistry(reg, &mt)
	}
	return pickCounters(reg)
}
