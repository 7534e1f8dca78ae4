package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run prints, with
// their units; BENCHMARK.json names the same set.
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p90_us", "us"},
	{"sim_cycles_per_op", "cycles/op"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics every traced run prints. A layer a
// workload does not exercise reports 0: it did no work there.
var perLayer = []struct{ name, unit string }{
	{"client.batch_p50_us", "us"},
	{"client.batch_p99_us", "us"},
	{"client.wire_p50_us", "us"},
	{"client.http_requests_per_batch", "req/batch"},
	{"client.cpu_ns_per_op", "ns/op"},
	{"service.handler_p50_us", "us"},
	{"service.wire_bytes_per_op", "B/op"},
	{"service.rejected", "count"},
	{"service.cpu_ns_per_op", "ns/op"},
	{"net.cpu_ns_per_op", "ns/op"},
	{"shard.batch_p50_us", "us"},
	{"shard.batch_p99_us", "us"},
	{"shard.overhead_ns_per_op", "ns/op"},
	{"shard.cpu_ns_per_op", "ns/op"},
	{"core.load_p50_ns", "ns"},
	{"core.store_p50_ns", "ns"},
	{"core.cpu_ns_per_op", "ns/op"},
	{"integrity.cpu_ns_per_op", "ns/op"},
	{"integrity.checks_per_op", "checks/op"},
	{"integrity.extra_per_miss", "blocks/miss"},
	{"cache.cpu_ns_per_op", "ns/op"},
	{"cache.l2_data_miss_rate", "ratio"},
	{"cache.l2_hash_miss_rate", "ratio"},
	{"mem.cpu_ns_per_op", "ns/op"},
	{"htree.cpu_ns_per_op", "ns/op"},
	{"hashalg.cpu_ns_per_op", "ns/op"},
	{"hashalg.bytes_hashed_per_op", "B/op"},
	{"bus.cpu_ns_per_op", "ns/op"},
	{"bus.bytes_per_op", "B/op"},
	{"bus.utilization", "ratio"},
	{"dram.cpu_ns_per_op", "ns/op"},
	{"dram.reads_per_op", "reads/op"},
	{"dram.writes_per_op", "writes/op"},
	{"cpu.cpu_ns_per_op", "ns/op"},
	{"trace.cpu_ns_per_op", "ns/op"},
	{"tlb.cpu_ns_per_op", "ns/op"},
	{"figures.cpu_ns_per_op", "ns/op"},
	{"sweep.cpu_ns_per_op", "ns/op"},
	{"sweep.busy_frac", "ratio"},
	{"persist.cpu_ns_per_op", "ns/op"},
	{"persist.ckpt_bytes", "B"},
	{"persist.fsyncs_per_ckpt", "count"},
	{"persist.io_p50_ms", "ms"},
	{"persist.ckpt_p50_ms", "ms"},
	{"persist.recover_ms", "ms"},
	{"persist.disk_bytes_per_user_byte", "B/B"},
	{"runtime.memmove_ns_per_op", "ns/op"},
	{"runtime.memmove_share", "ratio"},
	{"runtime.gc_ns_per_op", "ns/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"other.cpu_ns_per_op", "ns/op"},
	{"bench.cpu_ns_per_op", "ns/op"},
	{"bench.profile_samples_ns", "ns"},
	{"bench.spans", "count"},
	{"bench.tracing_overhead", "ratio"},
}

// profiledLayers are the profile buckets printed as <layer>.cpu_ns_per_op;
// any other bucket (a package outside this list) is folded into other,
// so the printed buckets still add up to every sample.
var profiledLayers = []string{"client", "service", "net", "shard", "core", "integrity", "cache", "mem",
	"htree", "hashalg", "bus", "dram", "cpu", "trace", "tlb", "figures", "sweep", "persist", "other", "bench"}

func metricsOf(vals map[string]float64, set []struct{ name, unit string }) map[string]metric {
	out := make(map[string]metric, len(set))
	for _, m := range set {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// profiler captures the CPU profile of a traced phase and the allocation
// it caused.
type profiler struct {
	buf   bytes.Buffer
	alloc uint64
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and adds the bucketed CPU time, memmove share,
// GC time and allocation per op to vals. ops is the traced phase's op
// count.
func (p *profiler) stop(ops uint64, vals map[string]float64) error {
	pprof.StopCPUProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perOp := func(v float64) float64 { return v / float64(ops) }
	vals["runtime.alloc_bytes_per_op"] = perOp(float64(ms.TotalAlloc - p.alloc))
	prof, err := parseProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	byBucket, total := prof.buckets()
	listed := map[string]bool{}
	for _, l := range profiledLayers {
		listed[l] = true
	}
	var sum int64
	for b, ns := range byBucket {
		sum += ns
		switch {
		case b == bucketMemmove:
			vals["runtime.memmove_ns_per_op"] = perOp(float64(ns))
		case b == bucketGC:
			vals["runtime.gc_ns_per_op"] = perOp(float64(ns))
		case listed[b]:
			vals[b+".cpu_ns_per_op"] += perOp(float64(ns))
		default:
			vals["other.cpu_ns_per_op"] += perOp(float64(ns))
		}
	}
	if sum != total {
		return checkf("profile buckets hold %d ns of %d sampled", sum, total)
	}
	vals["bench.profile_samples_ns"] = float64(total)
	if total > 0 {
		vals["runtime.memmove_share"] = float64(byBucket[bucketMemmove]) / float64(total)
	}
	return nil
}

// tailOr returns the q-percentile of sorted when the percentile rule
// allows it, and 0 (not reported) when fewer than ten samples lie beyond.
func tailOr(sorted []float64, q float64) float64 {
	v, _, ok := percentile(sorted, q)
	if !ok {
		return 0
	}
	return v
}

func p50(sorted []float64) float64 {
	v, _, _ := percentile(sorted, 0.5)
	return v
}

func millis(ds []time.Duration) []float64 {
	out := micros(ds)
	for i := range out {
		out[i] /= 1e3
	}
	return out
}

// simRates turns deterministic counters into the per-op simulated
// metrics the traced run prints for the integrity, cache, bus, DRAM and
// hash layers.
func simRates(det map[string]float64, ops float64, vals map[string]float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	vals["integrity.checks_per_op"] = det["integrity.checks"] / ops
	vals["integrity.extra_per_miss"] = ratio(det["integrity.extra_block_reads"]-det["integrity.extra_writeback_reads"],
		det["l2.data_misses"])
	vals["cache.l2_data_miss_rate"] = ratio(det["l2.data_misses"], det["l2.data_accesses"])
	vals["cache.l2_hash_miss_rate"] = ratio(det["l2.hash_misses"], det["l2.hash_accesses"])
	vals["bus.bytes_per_op"] = (det["bus.data_bytes"] + det["bus.hash_bytes"]) / ops
	vals["bus.utilization"] = ratio(det["bus.busy_cycles"], det["cpu.cycles"])
	vals["dram.reads_per_op"] = det["dram.reads"] / ops
	vals["dram.writes_per_op"] = det["dram.writes"] / ops
	vals["hashalg.bytes_hashed_per_op"] = det["hash.bytes"] / ops
}

func detDetail(det map[string]float64, detail map[string]float64) {
	for k, v := range det {
		detail["det."+k] = v
	}
}

func runStoreLocal(o options) (*outcome, error)    { return runStore(o, kindLocal, uniformMix) }
func runStoreRemote(o options) (*outcome, error)   { return runStore(o, kindRemote, uniformMix) }
func runCheckpointHot(o options) (*outcome, error) { return runStore(o, kindCheckpoint, hotMix) }

// runStore is the untraced run of a store workload: set up setupReps
// times, run the timed phase on the last instance, then the correctness
// checks.
func runStore(o options, kind storeKind, m mix) (*outcome, error) {
	if o.trace {
		return runStoreTraced(o, kind, m)
	}
	var setups []float64
	var e *storeEnv
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		env, err := setupStore(kind, m, o.seed, o.workdir, i, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			env.close()
			releaseMemory()
			continue
		}
		e = env
	}
	defer e.close()
	steal := startSteal()
	r, err := e.timed(o.seconds, nil)
	stolen := steal.share()
	out := &outcome{attempted: r.ops}
	if err != nil {
		return out, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return out, err
	}
	detail := map[string]float64{"steal_share": stolen}
	if err := e.postChecks(o, r, nil, detail); err != nil {
		return out, err
	}
	lat := micros(r.lat)
	p90, _, ok := percentile(lat, 0.9)
	if !ok {
		return out, fmt.Errorf("only %d batches: too few for a p90", len(lat))
	}
	out.metrics = metricsOf(map[string]float64{
		"ops_per_s":         median(r.rates),
		"lat_p50_us":        p50(lat),
		"lat_p90_us":        p90,
		"sim_cycles_per_op": r.det["cpu.cycles"] / float64(r.detOps),
		"setup_s":           median(setups),
		"peak_rss_mb":       rss,
	}, endToEnd)
	storeDetail(r, lat, detail)
	out.detail = detail
	return out, nil
}

// storeDetail adds what the report's fixed key set cannot carry.
func storeDetail(r *timedRun, lat []float64, detail map[string]float64) {
	p99, beyond, ok := percentile(lat, 0.99)
	if ok {
		detail["lat_p99_us"] = p99
	}
	detail["lat_samples"] = float64(len(lat))
	detail["lat_p99_beyond"] = float64(beyond)
	detail["rounds"] = float64(r.rounds)
	detail["det_ops"] = float64(r.detOps)
	detDetail(r.det, detail)
	if len(r.ckpt) > 0 {
		detail["ckpt_p50_ms"] = p50(millis(r.ckpt))
		detail["ckpt_samples"] = float64(len(r.ckpt))
		detail["disk_bytes_per_user_byte"] = float64(r.detDiskBytes) / float64(r.detUserBytes)
	}
}

// postChecks runs the correctness checks that follow the timed phase:
// recovery (checkpoint-hot), detection of injected corruption, and for
// store-remote the equality of its simulated counters with an in-process
// store fed the same stream.
func (e *storeEnv) postChecks(o options, r *timedRun, tr *tracer, detail map[string]float64) error {
	if e.kind == kindCheckpoint {
		d, err := e.checkRecovery(tr)
		if err != nil {
			return err
		}
		detail["recover_ms"] = float64(d) / float64(time.Millisecond)
	}
	if err := e.checkDetection(); err != nil {
		return err
	}
	if e.kind == kindRemote {
		detail["connections"] = float64(e.conns.Load())
		if !o.trace {
			loc, err := setupStore(kindLocal, e.m, o.seed, o.workdir, setupReps, false)
			if err != nil {
				return err
			}
			lr, err := loc.timed(0, nil)
			loc.close()
			if err != nil {
				return err
			}
			if err := diffCounters(r.det, lr.det); err != nil {
				return checkf("store-remote's simulated counters differ from an in-process store's: %v", err)
			}
		}
	}
	return nil
}

// runStoreTraced runs the workload untraced and then traced, half the
// time each, on fresh instances; it requires identical simulated
// counters from both and prints the per-layer metrics.
func runStoreTraced(o options, kind storeKind, m mix) (*outcome, error) {
	half := o.seconds / 2
	a, err := setupStore(kind, m, o.seed, o.workdir, 0, false)
	if err != nil {
		return nil, err
	}
	ra, err := a.timed(half, nil)
	a.close()
	if err != nil {
		return &outcome{attempted: ra.ops}, err
	}
	releaseMemory()

	e, err := setupStore(kind, m, o.seed, o.workdir, 1, true)
	if err != nil {
		return nil, err
	}
	defer e.close()
	tr := newTracer()
	if e.probe != nil {
		e.probe.tr = tr
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	r, err := e.timed(half, tr)
	vals := map[string]float64{}
	perr := prof.stop(r.ops, vals)
	out := &outcome{attempted: ra.ops + r.ops}
	if err != nil {
		return out, err
	}
	if perr != nil {
		return out, perr
	}
	if err := diffCounters(ra.det, r.det); err != nil {
		return out, checkf("tracing changed the simulated counters: %v", err)
	}
	detail := map[string]float64{}
	if err := e.postChecks(o, r, tr, detail); err != nil {
		return out, err
	}
	rp, err := engineReplay(m, e.scfg, kind == kindCheckpoint, tr)
	if err != nil {
		return out, err
	}
	if err := diffCounters(r.det, rp.det); err != nil {
		return out, checkf("engine replay counters differ from the store's: %v", err)
	}

	ops := float64(r.ops)
	lat := micros(r.lat)
	if kind == kindRemote {
		e.probe.mu.Lock()
		handler, requests, wireBytes := micros(e.probe.handler), e.probe.requests, e.probe.wireBytes
		e.probe.mu.Unlock()
		vals["client.batch_p50_us"] = p50(lat)
		vals["client.batch_p99_us"] = tailOr(lat, 0.99)
		vals["client.wire_p50_us"] = p50(micros(r.wire))
		vals["client.http_requests_per_batch"] = float64(requests) / float64(r.batches)
		vals["service.handler_p50_us"] = p50(handler)
		vals["service.wire_bytes_per_op"] = float64(wireBytes) / ops
		vals["service.rejected"] = float64(e.svc.Rejected(tenantName))
	} else {
		vals["shard.batch_p50_us"] = p50(lat)
		vals["shard.batch_p99_us"] = tailOr(lat, 0.99)
		var engine time.Duration
		for _, d := range rp.loads {
			engine += d
		}
		for _, d := range rp.stores {
			engine += d
		}
		var batch time.Duration
		for _, d := range r.lat {
			batch += d
		}
		vals["shard.overhead_ns_per_op"] = float64(batch)/ops - float64(engine)/float64(rp.ops)
	}
	vals["core.load_p50_ns"] = p50(micros(rp.loads)) * 1e3
	vals["core.store_p50_ns"] = p50(micros(rp.stores)) * 1e3
	simRates(r.det, float64(r.detOps), vals)
	if kind == kindCheckpoint {
		n := float64(m.detRounds)
		vals["persist.ckpt_bytes"] = float64(r.detDiskBytes) / n
		vals["persist.fsyncs_per_ckpt"] = float64(r.detSyncs) / n
		vals["persist.io_p50_ms"] = p50(millis(r.ckptIO))
		vals["persist.ckpt_p50_ms"] = p50(millis(r.ckpt))
		vals["persist.recover_ms"] = detail["recover_ms"]
		vals["persist.disk_bytes_per_user_byte"] = float64(r.detDiskBytes) / float64(r.detUserBytes)
	}
	vals["bench.tracing_overhead"] = median(r.rates) / median(ra.rates)
	vals["bench.spans"] = float64(len(tr.spans))
	if err := tr.writeChrome(traceFile(o)); err != nil {
		return out, err
	}
	out.metrics = metricsOf(vals, perLayer)
	storeDetail(r, lat, detail)
	out.detail = detail
	return out, nil
}

// traceFile is where a traced run leaves its Chrome trace: beside the
// run's private scratch directory, one file per workload.
func traceFile(o options) string {
	return filepath.Join(filepath.Dir(o.workdir), "traces", o.workload+".trace.json")
}
