// Command perfbench is the repository's benchmark. It drives one of four
// closed-loop workloads from a single generator goroutine against in-process
// loopback rmi.Node daemons (or the simulated testbed), checks every output,
// and prints the end-to-end metrics, or with -trace 1 the per-layer metrics,
// as a JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload rpc-echo --seed 1 --seconds 10 --trace 0
//
// The driver measures each layer from outside: it times its own calls into
// the layer's public functions and reads the stats accessors the layer
// already exports. No program code is instrumented.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool   // a few ops per workload, for the benchmark's own tests
	traceDir string // where the traced run writes its spans
}

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/perfbench/traces", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = *trace == 1

	res, report, err := run(cfg)
	os.Stdout.WriteString(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and returns the result plus a human-readable
// report (machine stamp, per-workload metric names with sample counts).
func run(cfg config) (result, string, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, "", fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 && !cfg.quick {
		return result{}, "", fmt.Errorf("--seconds must be positive")
	}
	var rep strings.Builder
	fmt.Fprintf(&rep, "# perfbench workload=%s seed=%d seconds=%g trace=%v quick=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.quick)
	fmt.Fprintf(&rep, "# machine %s\n", machineStamp())

	inst, setupS, err := setUp(w, cfg)
	if err != nil {
		return result{}, rep.String(), err
	}
	defer inst.close()
	fmt.Fprintf(&rep, "# setup_s median of %d set-ups: %.4f (each: %.4f)\n", len(setupS), median(setupS), setupS)

	if !cfg.trace {
		win, err := measure(w, inst, cfg, cfg.seconds, nil)
		if err != nil {
			return result{}, rep.String(), err
		}
		sum := summarize(win, w.tail)
		res := endToEnd(win, sum, median(setupS))
		reportWindow(&rep, w, win, sum)
		return res, rep.String(), nil
	}

	return tracedRun(w, inst, cfg, &rep)
}

// tracedRun runs the rungs, then measures the window in three parts: a
// quarter untraced, half traced, a quarter untraced. The per-layer metrics
// come from the traced half; the tracing overhead is the traced figures
// against the mean of the untraced quarters, which cancels a drift in the
// machine's speed that is steady across the window. The rungs come first so
// that what the workload's windows leave behind cannot slow them.
func tracedRun(w workload, inst instance, cfg config, rep *strings.Builder) (result, string, error) {
	tr := newTracer()
	rungs, err := runRungs(cfg, tr)
	if err != nil {
		return result{}, rep.String(), err
	}
	before, err := measure(w, inst, cfg, cfg.seconds/4, nil)
	if err != nil {
		return result{}, rep.String(), err
	}
	traced, err := measure(w, inst, cfg, cfg.seconds/2, tr)
	if err != nil {
		return result{}, rep.String(), err
	}
	after, err := measure(w, inst, cfg, cfg.seconds/4, nil)
	if err != nil {
		return result{}, rep.String(), err
	}
	b, a := summarize(before, w.tail), summarize(after, w.tail)
	plainSum := summary{opsPerS: (b.opsPerS + a.opsPerS) / 2, p50: (b.p50 + a.p50) / 2}
	tracedSum := summarize(traced, w.tail)
	layer := defaultLayer()
	for k, v := range traced.layer {
		layer[k] = v
	}
	for k, v := range rungs {
		layer[k] = v
	}
	layer["netrmi.issue_us"] = tr.perOp("netrmi.issue", traced.ops)
	layer["netrmi.wait_us"] = tr.perOp("netrmi.wait", traced.ops)
	if w.name == "sieve-farm" {
		layer["farm.speedup"] = layer["farm.seq_core_ms"] / tracedSum.p50
	}
	layer["trace.overhead_ops_pct"] = 100 * (plainSum.opsPerS - tracedSum.opsPerS) / plainSum.opsPerS
	layer["trace.overhead_p50_pct"] = 100 * (tracedSum.p50 - plainSum.p50) / plainSum.p50
	layer["trace.ops"] = float64(traced.ops)

	res := result{
		Correct:   before.correct() && traced.correct() && after.correct(),
		Attempted: before.attempted + traced.attempted + after.attempted,
		Failed:    before.failed + traced.failed + after.failed,
		Metrics:   make(map[string]metric, len(layer)),
	}
	for name, v := range layer {
		res.Metrics[name] = metric{Value: v, Unit: layerUnit(name)}
	}
	reportWindow(rep, w, traced, tracedSum)
	fmt.Fprintf(rep, "# tracing overhead: %.2f ops/s untraced vs %.2f traced, p50 %.4f ms vs %.4f ms\n",
		plainSum.opsPerS, tracedSum.opsPerS, plainSum.p50, tracedSum.p50)
	reportSpans(rep, tr)
	names := make([]string, 0, len(layer))
	for name := range layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(rep, "%-32s %14.4f %s\n", name, layer[name], layerUnit(name))
	}
	path, err := tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d", w.name, cfg.seed), machineStamp())
	if err != nil {
		return result{}, rep.String(), err
	}
	fmt.Fprintf(rep, "# spans written to %s\n", path)
	return res, rep.String(), nil
}

// setUp launches the workload's deployment several times and keeps the last
// one: set-up time is reported as the median over the repetitions, so a
// one-off cost of the first launch in the process does not dominate it.
func setUp(w workload, cfg config) (instance, []float64, error) {
	reps := 9
	if cfg.quick {
		reps = 2
	}
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		inst, err := w.start(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == reps-1 {
			return inst, times, nil
		}
		inst.close()
	}
}

// measure runs one measured window with the process counters around it.
func measure(w workload, inst instance, cfg config, seconds float64, tr *tracer) (window, error) {
	maxOps := int64(0)
	if cfg.quick {
		maxOps = w.quickOps
	}
	until := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	before := readProc()
	smp := startSampler()
	win, err := inst.measure(until, maxOps, tr)
	smp.stop()
	if err != nil {
		return win, err
	}
	after := readProc()
	win.host = smp.host
	win.layer["host.steal_pct"] = 100 * win.stealShare(0, win.elapsed)
	ops := float64(max(win.ops, 1))
	win.layer["proc.cpu_us_per_op"] = (after.cpu - before.cpu).Seconds() * 1e6 / ops
	win.layer["proc.allocs_per_op"] = float64(after.allocs-before.allocs) / ops
	win.layer["proc.gc_per_kop"] = float64(after.gcs-before.gcs) * 1000 / ops
	win.layer["proc.heap_peak_mb"] = float64(smp.peak) / (1 << 20)
	return win, nil
}

// endToEnd turns an untraced window into the end-to-end metrics.
func endToEnd(win window, s summary, setupS float64) result {
	return result{
		Correct:   win.correct(),
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"setup_s":    {setupS, "s"},
			"ops_per_s":  {s.opsPerS, "1/s"},
			"op_p50_ms":  {s.p50, "ms"},
			"op_tail_ms": {s.tail, "ms"},
		},
	}
}

// reportWindow prints the window under the workload's own metric names,
// each percentile with its sample count, plus every failed check.
func reportWindow(rep *strings.Builder, w workload, win window, s summary) {
	fmt.Fprintf(rep, "%s %ss_per_s=%.2f %s_p50_ms=%.4f %s_p%g_ms=%.4f\n",
		w.name, w.unit, s.opsPerS, w.unit, s.p50, w.unit, w.tail, s.tail)
	fmt.Fprintf(rep, "%s percentiles over the %d samples in %d quiet of %d slices of %v (%d beyond the tail); %d samples in all\n",
		w.name, s.samples, s.quiet, s.slices, quietSlice, beyond(s.samples, w.tail), len(win.lat))
	estimator := "quiet-slices"
	if s.allSlices {
		estimator = "all-slices"
	}
	fmt.Fprintf(rep, "# estimator %s quiet=%d slices=%d\n", estimator, s.quiet, s.slices)
	ratio := 0.0
	if win.attempted > 0 {
		ratio = float64(win.failed) / float64(win.attempted)
	}
	fmt.Fprintf(rep, "%s failed_ratio=%g (%d of %d)\n", w.name, ratio, win.failed, win.attempted)
	fmt.Fprintf(rep, "# host steal during the window: %.1f%% of vCPU time\n", win.layer["host.steal_pct"])
	for _, p := range win.problems {
		fmt.Fprintf(rep, "%s CHECK FAILED: %s\n", w.name, p)
	}
}
