package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentileMs returns the nearest-rank p-th percentile of sorted, in ms.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return ms(sorted[rank-1])
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func opsPerSec(w window) float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(w.ops) / w.elapsed.Seconds()
}

// procCounters are the process-wide counters read around a window.
type procCounters struct {
	cpu    time.Duration // user + system CPU
	allocs uint64        // heap objects allocated
	gcs    uint64        // completed GC cycles
}

func readProc() procCounters {
	var ru syscall.Rusage
	var pc procCounters
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		pc.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	pc.allocs = samples[0].Value.Uint64()
	pc.gcs = samples[1].Value.Uint64()
	return pc
}

// hostSample is one reading of the machine's cumulative CPU ticks.
type hostSample struct {
	at           time.Time
	steal, total uint64
}

// sampler reads the live heap and the machine's steal every 50 ms during a
// window.
type sampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64 // bytes; read after stop
	host []hostSample
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			s.peak = max(s.peak, heap[0].Value.Uint64())
			steal, total := hostSteal()
			s.host = append(s.host, hostSample{time.Now(), steal, total})
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop ends the sampler and waits for it.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// machineStamp names the machine every result was measured on.
func machineStamp() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q traffic=loopback-only (in-process rmi.Node daemons on 127.0.0.1)",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

// hostSteal reads the machine's cumulative steal and total CPU ticks: time
// the hypervisor ran something else while a vCPU of this machine was ready.
func hostSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// quietSteal is the largest share of vCPU time the hypervisor may give to
// other guests during a slice for the slice to count as quiet.
const quietSteal = 0.01

// quietSlice is the length of the slices a window is judged quiet by.
const quietSlice = time.Second

// summary is a window's end-to-end figures, taken over its quiet slices:
// those in which the hypervisor took at most quietSteal of the machine's
// vCPU time. The throughput is the ops that completed in quiet slices over
// their total length; the percentiles are those of the ops that started and
// ended in quiet slices, pooled. When fewer than 3, or fewer than a quarter,
// of the slices are quiet, every slice counts, and allSlices says so.
type summary struct {
	opsPerS, p50, tail float64 // tail is the workload's tail percentile, in ms
	slices, quiet      int
	allSlices          bool // too few slices were quiet, so every slice counted
	samples            int  // latencies the percentiles were taken over
}

func summarize(win window, tail float64) summary {
	n := int(win.elapsed / quietSlice) // whole slices only
	if n < 2 {
		lat := sortedCopy(win.lat)
		return summary{opsPerS: opsPerSec(win), p50: percentileMs(lat, 50), tail: percentileMs(lat, tail),
			slices: 1, quiet: 1, samples: len(lat)}
	}
	quiet := make([]bool, n)
	s := summary{slices: n}
	for i := range quiet {
		quiet[i] = win.stealShare(time.Duration(i)*quietSlice, time.Duration(i+1)*quietSlice) <= quietSteal
		if quiet[i] {
			s.quiet++
		}
	}
	if s.quiet < max(3, n/4) {
		for i := range quiet {
			quiet[i] = true
		}
		s.allSlices = true
	}
	inQuiet := func(at time.Duration) bool {
		b := int(max(at, 0) / quietSlice)
		return b < n && quiet[b]
	}

	var lat []time.Duration
	done := 0
	for i, at := range win.at {
		if !inQuiet(at) {
			continue
		}
		done++
		if inQuiet(at - win.lat[i]) {
			lat = append(lat, win.lat[i])
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	counted := s.quiet
	if s.allSlices {
		counted = n
	}
	s.opsPerS = float64(done) / (float64(counted) * quietSlice.Seconds())
	s.p50, s.tail, s.samples = percentileMs(lat, 50), percentileMs(lat, tail), len(lat)
	return s
}

func sortedCopy(lat []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
