package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecNamesTheWorkloads keeps BENCHMARK.json and the driver in step.
func TestSpecNamesTheWorkloads(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the driver runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q", i, w.Name, workloads[i].name)
		}
	}
	if len(s.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the driver prints %d", len(s.PerLayer), len(layerMetrics))
	}
}

// TestQuick runs every workload for a few ops, untraced and traced, and
// checks that every output check passes and that each metric BENCHMARK.json
// names is printed with its unit, and no other.
func TestQuick(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := config{workload: w.name, seed: 7, quick: true, trace: trace, traceDir: t.TempDir()}
				res, report, err := run(cfg)
				if err != nil {
					t.Fatalf("%v\n%s", err, report)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report)
				}
				want := s.EndToEnd
				if trace {
					want = s.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed7.jsonl", w.name))); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// TestSummarizeKeepsTheProgramsOwnTail checks that a stall of the program
// in one quiet slice reaches the tail: the percentiles pool every quiet
// slice's samples rather than taking a median over slices.
func TestSummarizeKeepsTheProgramsOwnTail(t *testing.T) {
	var win window
	for s := 0; s < 5; s++ {
		n, lat := 100, time.Millisecond
		if s == 2 {
			n, lat = 10, 50*time.Millisecond // a stalled second
		}
		for i := 0; i < n; i++ {
			win.sample(win.start.Add(time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond), lat)
		}
	}
	win.elapsed = 5 * time.Second
	got := summarize(win, 99)
	if got.slices != 5 || got.allSlices || got.opsPerS != 82 || got.p50 != 1 || got.tail != 50 {
		t.Fatalf("summary %+v, want 82 ops/s over 5 slices, p50 1 ms and the stall's 50 ms at p99", got)
	}
}

// TestSummarizeSkipsStolenSlices checks that a slice in which the hypervisor
// took vCPU time from the machine does not count, and that every slice
// counts again when too few are quiet.
func TestSummarizeSkipsStolenSlices(t *testing.T) {
	win := window{start: time.Unix(0, 0), elapsed: 5 * time.Second}
	for s := 0; s < 5; s++ {
		lat := time.Millisecond
		if s == 2 {
			lat = 5 * time.Millisecond
		}
		for i := 0; i < 100; i++ {
			win.sample(win.start.Add(time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond), lat)
		}
	}
	// 200 ticks a second, 20 of them stolen during the given slices.
	ticks := func(stolen ...int) []hostSample {
		var out []hostSample
		var steal uint64
		for s := 0; s <= 5; s++ {
			out = append(out, hostSample{at: win.start.Add(time.Duration(s) * time.Second), steal: steal, total: uint64(200 * s)})
			for _, st := range stolen {
				if st == s {
					steal += 20
				}
			}
		}
		return out
	}

	win.host = ticks(2)
	got := summarize(win, 99)
	// 399: the first op of slice 3 started in slice 2.
	if got.quiet != 4 || got.allSlices || got.opsPerS != 100 || got.tail != 1 || got.samples != 399 {
		t.Errorf("summary %+v, want the 399 samples that ran in 4 quiet slices of 100 ops/s, at 1 ms", got)
	}

	win.host = ticks(0, 1, 2, 3)
	got = summarize(win, 99)
	if got.quiet != 1 || !got.allSlices || got.tail != 5 || got.samples != 500 {
		t.Errorf("summary %+v, want every slice once too few are quiet", got)
	}
}
