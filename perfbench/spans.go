package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span buffer; later spans are counted as
// dropped rather than grown into.
const maxSpans = 1 << 20

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started; parent and batch tie a span to its caller and to
// the batch (or figure point) it belongs to.
type span struct {
	name       string
	start, end int64
	id, parent uint64
	batch      uint64
	tid        int
}

// tracer keeps spans in memory and writes them as Chrome trace-event
// JSON at the end of the run. A nil *tracer records nothing.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// add records one finished span and returns its id (0 when tr is nil).
func (tr *tracer) add(name string, start, end time.Time, parent, batch uint64, tid int) uint64 {
	id := tr.reserve()
	tr.addWithID(id, name, start, end, parent, batch, tid)
	return id
}

// reserve hands out a span id before the span ends, so children recorded
// first (the server handler inside a client batch) can name their parent.
func (tr *tracer) reserve() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextID++
	return tr.nextID
}

// addWithID records a finished span under an id from reserve.
func (tr *tracer) addWithID(id uint64, name string, start, end time.Time, parent, batch uint64, tid int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpans {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, span{name: name, start: int64(start.Sub(tr.t0)), end: int64(end.Sub(tr.t0)),
		id: id, parent: parent, batch: batch, tid: tid})
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" events,
// microsecond timestamps), one thread per tid.
func (tr *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tr.mu.Lock()
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range tr.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"batch":%d}}`,
			s.name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, s.batch)
	}
	fmt.Fprintf(w, "\n],\"otherData\":{\"dropped_spans\":%d}}\n", tr.dropped)
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Span names, one per layer boundary.
const (
	spanClientBatch = "client.batch"
	spanHandler     = "service.handler"
	spanShardBatch  = "shard.batch"
	spanEngineLoad  = "core.load"
	spanEngineStore = "core.store"
	spanCheckpoint  = "persist.checkpoint"
	spanRecovery    = "persist.recover"
	spanFigurePoint = "figures.point"
)

// Thread ids for the Chrome view.
const (
	tidClient = 1 + iota
	tidServer
	tidEngine
	tidPersist
	tidSweep // + worker index
)
