package imagepipe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aspectpar/internal/exec"
)

func frames(n, size int) []Frame {
	out := make([]Frame, n)
	for i := range out {
		f := make(Frame, size)
		for j := range f {
			f[j] = math.Abs(math.Sin(float64(i*size + j)))
		}
		out[i] = f
	}
	return out
}

func TestStageKinds(t *testing.T) {
	for _, k := range Kinds {
		if _, err := NewStage(k); err != nil {
			t.Errorf("NewStage(%q): %v", k, err)
		}
	}
	if _, err := NewStage("emboss"); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestStageOps(t *testing.T) {
	s, _ := NewStage("blur")
	s.Apply(make(Frame, 10))
	if s.TakeOps() == 0 {
		t.Error("Apply should count operations")
	}
}

func TestThreshold(t *testing.T) {
	s, _ := NewStage("threshold")
	out := s.Apply(Frame{0.1, 0.5, 0.9})
	if fmt.Sprint(out) != "[0 1 1]" {
		t.Errorf("threshold = %v", out)
	}
}

func TestWovenMatchesSequential(t *testing.T) {
	in := frames(8, 32)
	want := Sequential(in)

	w := Build()
	got, err := w.Process(exec.Real(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("frames = %d, want %d", len(got), len(want))
	}
	// The pipeline is order-preserving per frame content but frames may
	// complete out of order; match as multisets via sums.
	sum := func(fs []Frame) float64 {
		total := 0.0
		for _, f := range fs {
			for _, v := range f {
				total += v
			}
		}
		return total
	}
	if math.Abs(sum(got)-sum(want)) > 1e-9 {
		t.Errorf("content mismatch: got sum %v, want %v", sum(got), sum(want))
	}
}

func TestPipelineStagesSeeAllFrames(t *testing.T) {
	in := frames(5, 16)
	w := Build()
	if _, err := w.Process(exec.Real(), in); err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Pipe.Managed() {
		if got := len(s.(*Stage).Results()); got != 5 {
			t.Errorf("stage %d processed %d frames, want 5", i, got)
		}
	}
}

// TestTerminalLedgerBoundedByFloor streams 10k ids through a terminal stage
// the way the service drives it: a window of ids in flight, each round
// ingesting a random subset in random order (an id already delivered but
// still above the floor arrives again, as a redelivered hop would), plus a
// stale redelivery of an id below the floor. Every drain passes the
// delivered floor. The ledger must stay bounded by the in-flight spread,
// and no id may be delivered twice or below the floor.
func TestTerminalLedgerBoundedByFloor(t *testing.T) {
	const total, spread = 10000, 64
	s, _ := NewStage("threshold")
	s.last = true
	f := Frame{0.7}
	rng := rand.New(rand.NewSource(1))
	delivered := make(map[int64]bool)
	var floor, next int64 // lowest undelivered id; next id to admit
	for floor < total {
		for next < total && next-floor < spread {
			next++
		}
		for _, k := range rng.Perm(int(next - floor)) {
			if rng.Intn(2) == 0 {
				s.Ingest(floor+int64(k), f)
			}
		}
		if floor > 0 {
			s.Ingest(rng.Int63n(floor), f)
		}
		ids, frames := s.TakeDone(floor)
		if len(ids) != len(frames) {
			t.Fatalf("ledger returned %d ids and %d frames", len(ids), len(frames))
		}
		for _, id := range ids {
			if id < floor || delivered[id] {
				t.Fatalf("id %d delivered again (floor %d)", id, floor)
			}
			delivered[id] = true
		}
		if n := len(s.recorded); n > spread {
			t.Fatalf("ledger holds %d ids with %d in flight", n, spread)
		}
		for floor < next && delivered[floor] {
			floor++
		}
	}
	if len(delivered) != total {
		t.Fatalf("delivered %d ids, want %d", len(delivered), total)
	}
}

// Property: threshold output is always 0/1 valued regardless of input.
func TestThresholdProperty(t *testing.T) {
	f := func(vals []float64) bool {
		s, _ := NewStage("threshold")
		if len(vals) == 0 {
			vals = []float64{0}
		}
		for _, v := range s.Apply(Frame(vals)) {
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: blur preserves the frame sum on constant frames (box filter of
// a constant is the constant).
func TestBlurConstantProperty(t *testing.T) {
	f := func(raw uint8) bool {
		c := float64(raw) / 255
		s, _ := NewStage("blur")
		out := s.Apply(Frame{c, c, c, c, c})
		for _, v := range out {
			if math.Abs(v-c) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
