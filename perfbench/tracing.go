package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// span is one timed call into a layer's public API, made from the
// benchmark's own code. Spans of one request share req; parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int32
	req        int64
}

// tracer keeps spans in memory while recording is on; they are written
// out once the run ends. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	// cur is the innermost open span of the sequential in-process
	// replay, so calls it triggers deeper in the stack (WAL appends)
	// can name their parent. -1 when none is open.
	cur atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.cur.Store(-1)
	return t
}

// begin opens a span and returns its id, or -1 when not recording.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds a span that was timed by the caller.
func (t *tracer) record(name string, start time.Time, d time.Duration, parent int32, req int64) {
	if t == nil || !t.on.Load() {
		return
	}
	s := start.Sub(t.origin)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: s, end: s + d, parent: parent, req: req})
	t.mu.Unlock()
}

// durations returns the durations in milliseconds of every closed span
// with the given name, sorted.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// selfSeconds sums, per span name, each span's duration minus the part of
// it its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.start - child[i]
		if self < 0 {
			self = 0
		}
		out[s.name] += self.Seconds()
	}
	return out
}

// current is the sequential replay's open span, -1 when none.
func (t *tracer) current() int32 {
	if t == nil {
		return -1
	}
	return t.cur.Load()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps the spans as CSV: name, start_ns, end_ns, parent, req.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,req")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.req)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedLog wraps a shard's store.Log: with the tracer recording, every
// Append becomes a span (its parent is the sequential replay's open span,
// if any). Appends are counted and the time inside Replay summed either
// way.
type timedLog struct {
	store.Log
	tr      *tracer
	appends atomic.Int64
	replay  atomic.Int64 // nanoseconds spent inside Replay
}

func (l *timedLog) Append(rec *store.Record) error {
	l.appends.Add(1)
	id := l.tr.begin("store.append", l.tr.current(), -1)
	err := l.Log.Append(rec)
	l.tr.end(id)
	return err
}

func (l *timedLog) Replay(fn func(*store.Record) error) error {
	start := time.Now()
	err := l.Log.Replay(fn)
	l.replay.Add(int64(time.Since(start)))
	return err
}

// countConn counts the bytes an LRM reads from the GRM.
type countConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}
