package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file. Every span still
// counts towards the per-name totals; only the first maxKeptSpans are
// written out, so a traced run of a fast workload stays small in memory.
const maxKeptSpans = 1 << 16

// span is one timed call the driver made into a layer. Spans of one op
// share its op id; parent is the id of the span that caused it (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// spanTotal aggregates every span of one name.
type spanTotal struct {
	count int64
	total time.Duration
	self  time.Duration // total minus the time child spans cover
}

// tracer records spans in memory, from the generator goroutine only. A nil
// tracer records nothing, which is how the untraced windows run.
type tracer struct {
	epoch  time.Time
	nextID int64
	kept   []span
	totals map[string]*spanTotal
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: make(map[string]*spanTotal)}
}

// newID reserves a span id, so children can name their parent before the
// parent's span is recorded.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// record adds one finished span; covered is the part of it that its child
// spans cover, which the caller knows because it recorded them.
func (t *tracer) record(id int64, name string, start, end time.Time, parent, op int64, covered time.Duration) {
	if t == nil {
		return
	}
	dur := end.Sub(start)
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.count++
	tot.total += dur
	tot.self += dur - covered
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{ID: id, Parent: parent, Op: op, Name: name,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	}
}

// perOp returns the total time of the named spans in microseconds per op.
func (t *tracer) perOp(name string, ops int64) float64 {
	tot := t.totals[name]
	if tot == nil || ops == 0 {
		return 0
	}
	return float64(tot.total) / 1e3 / float64(ops)
}

func (t *tracer) names() []string {
	names := make([]string, 0, len(t.totals))
	for name := range t.totals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// write saves the machine stamp, the kept spans and the per-name totals as
// JSON lines under dir and returns the file's path.
func (t *tracer) write(dir, base, stamp string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, base+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]any{"machine": stamp, "spans_kept": len(t.kept), "spans_total": t.nextID})
	for _, s := range t.kept {
		_ = enc.Encode(s)
	}
	for _, name := range t.names() {
		tot := t.totals[name]
		_ = enc.Encode(map[string]any{"summary": name, "count": tot.count,
			"total_ns": int64(tot.total), "self_ns": int64(tot.self)})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}

// reportSpans prints each span name's count, total and self time.
func reportSpans(rep *strings.Builder, t *tracer) {
	fmt.Fprintf(rep, "# %-22s %10s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_us")
	for _, name := range t.names() {
		tot := t.totals[name]
		fmt.Fprintf(rep, "# %-22s %10d %12.3f %12.3f %12.3f\n", name, tot.count,
			ms(tot.total), ms(tot.self), float64(tot.total.Nanoseconds())/1e3/float64(tot.count))
	}
}
