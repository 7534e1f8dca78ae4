package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"

	"memverify/internal/htree"
)

func TestPercentileRule(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// p99 needs ten samples beyond it: 1000 samples leave exactly ten.
	if _, beyond, ok := percentile(sorted(999), 0.99); ok || beyond != 9 {
		t.Errorf("999 samples: p99 reportable=%v with %d beyond, want false with 9", ok, beyond)
	}
	if v, beyond, ok := percentile(sorted(1000), 0.99); !ok || beyond != 10 || v != 990 {
		t.Errorf("1000 samples: p99=%v beyond=%d ok=%v, want 990, 10, true", v, beyond, ok)
	}
	if _, _, ok := percentile(sorted(99), 0.9); ok {
		t.Error("99 samples: p90 has 9 beyond and must not be reported")
	}
	if v, _, ok := percentile(sorted(3), 0.5); !ok || v != 2 {
		t.Errorf("median of 1..3 = %v (ok=%v), want 2", v, ok)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("no samples must report nothing")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, _, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v..%v, want 1..4", q1, q3)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memmove", "memverify/internal/mem.(*Backing).Read"}, bucketMemmove},
		{[]string{"runtime.memmove", "net/http.(*conn).serve"}, bucketMemmove},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "memverify/internal/cache.(*Cache).Fill"}, bucketGC},
		{[]string{"runtime.mallocgc", "memverify/internal/cache.(*Cache).Fill", "memverify/internal/core.(*Machine).LoadBytes"}, "cache"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "memverify/internal/service.(*Service).handleBatch"}, bucketNet},
		{[]string{"memverify/internal/service.DecodeRequest", "net/http.(*conn).serve"}, "service"},
		{[]string{"memverify/internal/service/client.(*Batch).Wait", "main.(*storeEnv).timed"}, "client"},
		{[]string{"memverify/internal/hashalg.fnv128.AppendSum", "memverify/internal/integrity.(*Cached).check"}, "hashalg"},
		{[]string{"bytes.Equal", "main.(*batchBuf).check", "main.main"}, bucketBench},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// protoBuf is a minimal protobuf writer for building synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(num int, vs ...uint64) {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	p.bytes(num, q)
}

// TestProfileBucketsCountEverySampleOnce builds a gzipped profile.proto
// with inlined frames, packed and unpacked sample fields, and checks that
// every sample lands in exactly one bucket.
func TestProfileBucketsCountEverySampleOnce(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove", "memverify/internal/mem.(*Backing).Read",
		"memverify/internal/core.(*Machine).LoadBytes", "runtime.gcBgMarkWorker",
		"syscall.write", "main.main", "runtime.schedule"}
	var p protoBuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var m protoBuf
		m.varint(1, vt[0])
		m.varint(2, vt[1])
		p.bytes(1, m.b)
	}
	// Functions 1..7 name strings 5..11.
	for id := uint64(1); id <= 7; id++ {
		var f protoBuf
		f.varint(1, id)
		f.varint(2, id+4)
		p.bytes(5, f.b)
	}
	// Location 1: memmove; 2: mem.Read with core.LoadBytes inlined into
	// it (two lines, innermost first); 3: GC worker; 4: syscall;
	// 5: main; 6: scheduler.
	locFns := map[uint64][]uint64{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}, 5: {6}, 6: {7}}
	for id := uint64(1); id <= 6; id++ {
		var l protoBuf
		l.varint(1, id)
		for _, fn := range locFns[id] {
			var line protoBuf
			line.varint(1, fn)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	samples := []struct {
		locs []uint64
		ns   uint64
		want string
	}{
		{[]uint64{1, 2}, 10, bucketMemmove},
		{[]uint64{2, 5}, 20, "mem"},
		{[]uint64{3}, 30, bucketGC},
		{[]uint64{4, 2}, 40, bucketNet},
		{[]uint64{5}, 50, bucketBench},
		{[]uint64{6}, 60, bucketOther},
	}
	for i, s := range samples {
		var m protoBuf
		if i%2 == 0 {
			m.packed(1, s.locs...)
			m.packed(2, 1, s.ns)
		} else {
			for _, l := range s.locs {
				m.varint(1, l)
			}
			m.varint(2, 1)
			m.varint(2, s.ns)
		}
		p.bytes(2, m.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()

	prof, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byBucket, total := prof.buckets()
	if total != 210 {
		t.Fatalf("total %d ns, want 210", total)
	}
	var sum int64
	for _, v := range byBucket {
		sum += v
	}
	if sum != total {
		t.Fatalf("buckets hold %d ns of %d", sum, total)
	}
	for _, s := range samples {
		if byBucket[s.want] != int64(s.ns) {
			t.Errorf("bucket %s holds %d ns, want %d", s.want, byBucket[s.want], s.ns)
		}
	}
}

func TestOpGenDeterministicPerSeed(t *testing.T) {
	const span = 1<<20 - 4096
	for _, m := range []mix{uniformMix, hotMix} {
		a, b, c := newOpGen(m, 7, span), newOpGen(m, 7, span), newOpGen(m, 8, span)
		differ := false
		for i := 0; i < 20000; i++ {
			ao, an, aw := a.next()
			bo, bn, bw := b.next()
			co, _, _ := c.next()
			if ao != bo || an != bn || aw != bw {
				t.Fatalf("%s op %d differs for the same seed", m.scheme, i)
			}
			differ = differ || ao != co
			if an < 1 || an > m.maxLen || ao+uint64(an) > span {
				t.Fatalf("op %d: %d bytes at %d leaves the %d-byte region", i, an, ao, span)
			}
			if m.zipf && ao/blockBytes != (ao+uint64(an)-1)/blockBytes {
				t.Fatalf("zipf op %d crosses a block: %d bytes at %d", i, an, ao)
			}
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", m.scheme)
		}
	}
}

// TestMirrorModel applies generated batches in order to a plain byte
// slice: every read's expectation must equal the slice at that point,
// and the mirror must end equal to the slice.
func TestMirrorModel(t *testing.T) {
	const span = 64 << 10
	m := uniformMix
	s := newStream(m, 3, span)
	plain := make([]byte, span)
	var ps plainStore
	ps.mem = plain
	if err := s.prefill(&ps); err != nil {
		t.Fatal(err)
	}
	b := newBatchBuf(m.batchOps, m.maxLen)
	for i := 0; i < 2000; i++ {
		s.fill(b)
		for _, o := range b.ops {
			if o.write {
				copy(plain[o.off:], b.data[o.pos:o.pos+o.n])
			} else if !bytes.Equal(b.want[o.pos:o.pos+o.n], plain[o.off:o.off+uint64(o.n)]) {
				t.Fatalf("batch %d: expectation for a read at %d disagrees with the plain slice", i, o.off)
			}
		}
	}
	if !bytes.Equal(s.mirror, plain) {
		t.Fatal("mirror and plain slice diverged")
	}
	// A store that returns what the plain slice holds passes the check;
	// one flipped byte fails it.
	s.fill(b)
	b.submit(&ps)
	if err := b.check(); err != nil {
		t.Fatalf("faithful store failed the check: %v", err)
	}
	for _, o := range b.ops {
		if !o.write {
			b.data[o.pos] ^= 1
			if b.check() == nil {
				t.Fatal("a corrupted read passed the check")
			}
			break
		}
	}
}

// plainStore is a batcher over a byte slice, applying ops immediately.
type plainStore struct{ mem []byte }

func (p *plainStore) Load(off uint64, b []byte)  { copy(b, p.mem[off:]) }
func (p *plainStore) Store(off uint64, b []byte) { copy(p.mem[off:], b) }
func (p *plainStore) Wait() error                { return nil }

func TestTreeDepth(t *testing.T) {
	if d := treeDepth(4<<30, 64, 16); d != 13 {
		t.Errorf("4 GiB, 64 B blocks: depth %d, want 13", d)
	}
	if d := treeDepth(4<<30, 128, 16); d != 8 {
		t.Errorf("4 GiB, 128 B blocks: depth %d, want 8", d)
	}
	// Cross-check against the tree layout's own walk for the first leaf.
	for _, c := range []struct {
		protected  uint64
		block, hsz int
	}{{1 << 20, 64, 16}, {3 << 20, 64, 16}, {1 << 30, 128, 16}, {5000, 64, 8}, {64, 64, 16}} {
		l, err := htree.NewLayout(c.block, c.hsz, c.protected)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := treeDepth(c.protected, c.block, c.hsz), l.Depth(l.InteriorChunks); got != want {
			t.Errorf("%+v: depth %d, layout says %d", c, got, want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"ops_per_s","better":"higher","bound":0.1},
		{"name":"setup_s","better":"lower","bound":0.25}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	mk := func(ops, setup float64, cycles float64) runSet {
		var s runSet
		for seed := int64(1); seed <= 5; seed++ {
			s.Runs = append(s.Runs, runRecord{Seed: seed, Report: report{Correct: true, Attempted: 100,
				Metrics: map[string]metric{"ops_per_s": {ops + float64(seed), "1/s"}, "setup_s": {setup, "s"},
					"sim_cycles_per_op": {cycles, "cycles/op"}}}})
		}
		return s
	}
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	if p := compareSets(spec, mk(1000, 1, 5), mk(990, 1.1, 5), devnull); len(p) != 0 {
		t.Errorf("within bounds, got %v", p)
	}
	if p := compareSets(spec, mk(1000, 1, 5), mk(800, 1, 5), devnull); len(p) != 1 {
		t.Errorf("20%% slower ops_per_s: want one problem, got %v", p)
	}
	if p := compareSets(spec, mk(1000, 1, 5), mk(1000, 1, 6), devnull); len(p) != 5 {
		t.Errorf("changed deterministic counter: want one problem per seed, got %v", p)
	}
}

// smallMix shrinks a mix so a smoke run takes well under a second.
func smallMix(m mix) mix {
	m.roundBatches, m.detRounds, m.warmBatches = 64, 2, 16
	return m
}

func TestSmokeStoreWorkloads(t *testing.T) {
	for _, c := range []struct {
		name string
		kind storeKind
		m    mix
	}{{"store-local", kindLocal, uniformMix}, {"store-remote", kindRemote, uniformMix}, {"checkpoint-hot", kindCheckpoint, hotMix}} {
		for _, traced := range []bool{false, true} {
			o := options{workload: c.name, seed: 5, seconds: 0.01, trace: traced, workdir: t.TempDir()}
			out, err := runStore(o, c.kind, smallMix(c.m))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", c.name, traced, err)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(out.metrics) != want || out.attempted == 0 {
				t.Fatalf("%s traced=%v: %d metrics, %d attempted", c.name, traced, len(out.metrics), out.attempted)
			}
			if traced {
				if _, err := os.Stat(traceFile(o)); err != nil {
					t.Errorf("%s: no trace written: %v", c.name, err)
				}
				continue
			}
			for _, m := range endToEnd {
				if v := out.metrics[m.name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v, want a positive number", c.name, m.name, v)
				}
			}
		}
	}
}

func TestSmokeSimPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweep rounds take a few seconds")
	}
	out, err := runSimPaper(options{workload: "sim-paper", seed: 2, seconds: 0.01, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != simMinRounds*simPointsPerRound {
		t.Errorf("attempted %d points, want %d", out.attempted, simMinRounds*simPointsPerRound)
	}
	for _, m := range endToEnd {
		if v := out.metrics[m.name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a positive number", m.name, v)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the printed metric
// sets in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s unknown here", w.Name)
		}
	}
	same := func(what string, a []struct{ Name, Unit string }, b []struct{ name, unit string }) {
		if len(a) != len(b) {
			t.Errorf("%s: %d in BENCHMARK.json, %d here", what, len(a), len(b))
			return
		}
		for i := range a {
			if a[i].Name != b[i].name || a[i].Unit != b[i].unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s here", what, i, a[i].Name, a[i].Unit, b[i].name, b[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
