package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"memverify/internal/cache"
	"memverify/internal/core"
	"memverify/internal/figures"
	"memverify/internal/trace"
)

// A sim-paper round is every Fig 5 and Fig 8 point for the paper's nine
// SPEC profiles on the Table 1 machine: base, c and naive at 1 MB/64 B,
// then c-64 B, c-128 B, m and i at 1 MB — 63 timing-mode points at the
// figures package's default instruction budget.

// simTask is one figure for one profile, run through figures.Params with
// a serial sweep so the Observer times each point as it completes.
type simTask struct {
	fig   int // 5 or 8
	bench trace.Profile
}

type simPoint struct {
	task       int
	cfg        core.Config
	mt         core.Metrics
	start, end time.Time
}

func simTasks() []simTask {
	var ts []simTask
	for _, b := range figures.DefaultParams().Benchmarks {
		ts = append(ts, simTask{5, b}, simTask{8, b})
	}
	return ts
}

// simPointsPerRound is 9 profiles × (3 Fig 5 + 4 Fig 8) points.
const simPointsPerRound = 63

// simMinRounds keeps at least 126 points per run, so the p90 has at
// least ten points beyond it.
const simMinRounds = 2

func runSimTask(t simTask, seed int64) []simPoint {
	p := figures.DefaultParams()
	p.Seed = uint64(seed)
	p.Benchmarks = []trace.Profile{t.bench}
	p.Workers = 1
	var pts []simPoint
	last := time.Now()
	p.Observer = func(cfg core.Config, mt core.Metrics) {
		now := time.Now()
		pts = append(pts, simPoint{cfg: cfg, mt: mt, start: last, end: now})
		last = now
	}
	if t.fig == 5 {
		p.Fig5()
	} else {
		p.Fig8()
	}
	return pts
}

// simWorkers is the sweep's parallelism: one worker per CPU.
func simWorkers() int { return runtime.NumCPU() }

// runSimRound runs tasks on simWorkers goroutines and returns the points
// in task order, each stamped with the task it came from.
func runSimRound(tasks []simTask, seed int64, tr *tracer, round int) []simPoint {
	results := make([][]simPoint, len(tasks))
	next := make(chan int, len(tasks)) // holds every task index
	for i := range tasks {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				pts := runSimTask(tasks[i], seed)
				for j := range pts {
					pts[j].task = i
					// A point's batch is its figure task.
					tr.add(spanFigurePoint, pts[j].start, pts[j].end, 0, uint64(round*len(tasks)+i), tidSweep+w)
				}
				results[i] = pts
			}
		}(w)
	}
	wg.Wait()
	var out []simPoint
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// simRun is what one sim-paper timed phase measured.
type simRun struct {
	rounds  int
	points  int
	instrs  uint64 // simulated instructions, warm-up included
	wall    time.Duration
	rates   []float64     // per round: simulated instructions per host second
	busy    time.Duration // sum of point times
	lat     []time.Duration
	first   []simPoint // round 1, the deterministic reference
	det     map[string]float64
	retired float64
}

func simTimed(seconds float64, seed int64, tr *tracer) (*simRun, error) {
	tasks := simTasks()
	r := &simRun{}
	start := time.Now()
	for {
		roundStart, roundInstrs := time.Now(), r.instrs
		pts := runSimRound(tasks, seed, tr, r.rounds)
		if len(pts) != simPointsPerRound {
			return r, fmt.Errorf("round %d ran %d points, want %d", r.rounds, len(pts), simPointsPerRound)
		}
		for i, p := range pts {
			r.points++
			r.instrs += p.cfg.Instructions + p.cfg.Warmup
			r.lat = append(r.lat, p.end.Sub(p.start))
			r.busy += p.end.Sub(p.start)
			if r.rounds > 0 && p.mt.Result != r.first[i].mt.Result {
				return r, checkf("round %d point %d (%s %s) simulated differently from round 1",
					r.rounds, i, p.cfg.Benchmark.Name, p.cfg.Scheme)
			}
		}
		if r.rounds == 0 {
			r.first = pts
		}
		r.rates = append(r.rates, float64(r.instrs-roundInstrs)/time.Since(roundStart).Seconds())
		r.rounds++
		if r.rounds >= simMinRounds && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	r.wall = time.Since(start)
	r.det = map[string]float64{}
	for _, p := range r.first {
		for k, v := range metricsCounters(p.mt) {
			r.det[k] += v
		}
		r.retired += float64(p.mt.Result.Instructions)
	}
	return r, nil
}

// metricsCounters maps one point's Metrics onto the store workloads'
// counter names.
func metricsCounters(mt core.Metrics) map[string]float64 {
	st := &mt.L2Stats
	is := &mt.IntegrityStats
	return map[string]float64{
		"cpu.cycles":                      float64(mt.Result.Cycles),
		"integrity.checks":                float64(is.Checks),
		"l2.data_accesses":                float64(st.Accesses[cache.Data] + st.Writes[cache.Data]),
		"l2.data_misses":                  float64(mt.L2DataMisses),
		"l2.hash_accesses":                float64(mt.L2HashAccesses),
		"l2.hash_misses":                  float64(st.Misses[cache.Hash] + st.WriteMiss[cache.Hash]),
		"integrity.extra_block_reads":     float64(is.ExtraBlockReads),
		"integrity.extra_writeback_reads": float64(is.ExtraWriteBackReads),
		"bus.data_bytes":                  float64(mt.BusDataBytes),
		"bus.hash_bytes":                  float64(mt.BusHashBytes),
		"bus.busy_cycles":                 mt.BusUtilization * float64(mt.Result.Cycles),
		"hash.bytes":                      float64(mt.HashBytesHashed),
		"dram.reads":                      float64(mt.DRAMReads),
		"dram.writes":                     float64(mt.DRAMWrites),
	}
}

// treeDepth is the number of stored hashes a cold read of the first data
// block walks to reach the root, for a heap-ordered tree whose interior
// chunks precede the data: each chunk holds block/hash child hashes and
// level k of the tree starts at chunk (arity^k - 1)/(arity - 1). The
// profiles' working sets start at the first data block and stay on its
// level, so naive's extra blocks per miss must equal this.
func treeDepth(protected uint64, block, hash int) int {
	arity := uint64(block / hash)
	data := (protected + uint64(block) - 1) / uint64(block)
	interior := uint64(1)
	if data > 1 {
		interior = (data - 1 + arity - 2) / (arity - 1)
	}
	depth, first, width := 0, uint64(0), uint64(1)
	for first+width <= interior {
		first += width
		width *= arity
		depth++
	}
	return depth
}

// checkSimPoints holds one round's points to the properties the method
// must have: exact instruction budgets, no hashing under base, base IPC
// at least that of every verified scheme at the same cache and chunk
// geometry, c walking fewer extra blocks per miss than naive, and naive
// walking exactly the tree depth.
func checkSimPoints(tasks []simTask, pts []simPoint) error {
	byTask := make([][]simPoint, len(tasks))
	for _, p := range pts {
		if p.mt.Result.Instructions != p.cfg.Instructions {
			return checkf("%s %s retired %d instructions of a %d budget", p.cfg.Benchmark.Name, p.cfg.Scheme,
				p.mt.Result.Instructions, p.cfg.Instructions)
		}
		byTask[p.task] = append(byTask[p.task], p)
	}
	for i := 0; i < len(tasks); i += 2 {
		f5, f8 := byTask[i], byTask[i+1]
		if len(f5) != 3 || len(f8) != 4 {
			return checkf("%s: %d Fig 5 and %d Fig 8 points, want 3 and 4", tasks[i].bench.Name, len(f5), len(f8))
		}
		base, c, naive := f5[0], f5[1], f5[2]
		name := base.cfg.Benchmark.Name
		if base.cfg.Scheme != core.SchemeBase || c.cfg.Scheme != core.SchemeCached || naive.cfg.Scheme != core.SchemeNaive {
			return checkf("%s: unexpected Fig 5 point order", name)
		}
		if base.mt.HashBytesHashed != 0 || base.mt.BusHashBytes != 0 {
			return checkf("%s: base hashed %d bytes and moved %d hash bytes", name,
				base.mt.HashBytesHashed, base.mt.BusHashBytes)
		}
		// m and i read whole two-block chunks, which prefetches the
		// neighbour block; they are held to no IPC bound against base.
		for _, v := range []simPoint{c, naive, f8[0]} {
			if v.cfg.L2Size != base.cfg.L2Size || v.cfg.L2Block != base.cfg.L2Block || v.cfg.ChunkBlocks != base.cfg.ChunkBlocks {
				return checkf("%s: %s point is not at base's cache and chunk geometry", name, v.cfg.Scheme)
			}
			if v.mt.IPC > base.mt.IPC {
				return checkf("%s: %s IPC %.4f above base's %.4f", name, v.cfg.Scheme, v.mt.IPC, base.mt.IPC)
			}
		}
		if c.mt.ExtraPerMiss >= naive.mt.ExtraPerMiss {
			return checkf("%s: c walks %.3f extra blocks per miss, naive %.3f", name,
				c.mt.ExtraPerMiss, naive.mt.ExtraPerMiss)
		}
		depth := treeDepth(naive.cfg.ProtectedBytes, naive.cfg.L2Block, naive.cfg.HashSize)
		if naive.mt.ExtraPerMiss != float64(depth) {
			return checkf("%s: naive walks %.4f extra blocks per miss, the tree is %d deep", name,
				naive.mt.ExtraPerMiss, depth)
		}
	}
	return nil
}

// simSetup is sim-paper's set-up: build the task list and warm the
// process with one untimed task per worker.
func simSetup(seed int64) {
	tasks := simTasks()
	var wg sync.WaitGroup
	for w := 0; w < simWorkers() && w < len(tasks); w++ {
		wg.Add(1)
		go func(t simTask) {
			defer wg.Done()
			runSimTask(t, seed)
		}(tasks[w])
	}
	wg.Wait()
}

func runSimPaper(o options) (*outcome, error) {
	if o.trace {
		return runSimTraced(o)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		simSetup(o.seed)
		setups = append(setups, time.Since(t0).Seconds())
	}
	steal := startSteal()
	r, err := simTimed(o.seconds, o.seed, nil)
	stolen := steal.share()
	out := &outcome{attempted: uint64(r.points)}
	if err != nil {
		return out, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return out, err
	}
	if err := checkSimPoints(simTasks(), r.first); err != nil {
		return out, err
	}
	lat := micros(r.lat)
	p90, _, ok := percentile(lat, 0.9)
	if !ok {
		return out, fmt.Errorf("only %d points: too few for a p90", len(lat))
	}
	out.metrics = metricsOf(map[string]float64{
		"ops_per_s":         median(r.rates),
		"lat_p50_us":        p50(lat),
		"lat_p90_us":        p90,
		"sim_cycles_per_op": r.det["cpu.cycles"] / r.retired,
		"setup_s":           median(setups),
		"peak_rss_mb":       rss,
	}, endToEnd)
	out.detail = simDetail(r, lat)
	out.detail["steal_share"] = stolen
	return out, nil
}

func simDetail(r *simRun, lat []float64) map[string]float64 {
	detail := map[string]float64{"lat_samples": float64(len(lat)), "rounds": float64(r.rounds),
		"sweep_busy_frac": sweepBusy(r)}
	detDetail(r.det, detail)
	return detail
}

func sweepBusy(r *simRun) float64 {
	return r.busy.Seconds() / (float64(simWorkers()) * r.wall.Seconds())
}

// runSimTraced runs sim-paper untraced and then traced with point spans
// and a CPU profile, half the time each.
func runSimTraced(o options) (*outcome, error) {
	half := o.seconds / 2
	ra, err := simTimed(half, o.seed, nil)
	if err != nil {
		return &outcome{attempted: uint64(ra.points)}, err
	}
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	r, err := simTimed(half, o.seed, tr)
	vals := map[string]float64{}
	perr := prof.stop(r.instrs, vals)
	out := &outcome{attempted: uint64(ra.points + r.points)}
	if err != nil {
		return out, err
	}
	if perr != nil {
		return out, perr
	}
	for i := range r.first {
		if r.first[i].mt.Result != ra.first[i].mt.Result {
			return out, checkf("tracing changed the simulation of point %d", i)
		}
	}
	if err := checkSimPoints(simTasks(), r.first); err != nil {
		return out, err
	}
	simRates(r.det, r.retired, vals)
	vals["sweep.busy_frac"] = sweepBusy(r)
	vals["bench.tracing_overhead"] = median(r.rates) / median(ra.rates)
	vals["bench.spans"] = float64(len(tr.spans))
	if err := tr.writeChrome(traceFile(o)); err != nil {
		return out, err
	}
	out.metrics = metricsOf(vals, perLayer)
	out.detail = simDetail(r, micros(r.lat))
	return out, nil
}
