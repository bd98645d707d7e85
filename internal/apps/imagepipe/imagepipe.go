// Package imagepipe demonstrates reuse of the pipeline protocol aspect on a
// different application (the paper's claim: "moving from a parallel
// application to another using the same parallelisation strategy is
// performed by copying the parallelisation aspects and updating these
// modules"). A stream of image frames passes through a chain of filter
// stages — blur, sharpen, threshold — each stage an instance of the same
// sequential core class.
package imagepipe

import (
	"fmt"
	"sync"

	"aspectpar/internal/aspect"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
)

// Frame is one grayscale scanline-major image, flattened.
type Frame []float64

// Stage is the sequential core class: one image filter. It is oblivious of
// pipelining, concurrency and distribution. For the resident streaming
// service the terminal stage also keeps an exactly-once delivery ledger the
// service drains with TakeDone.
type Stage struct {
	kind string
	last bool // terminal stage of a streaming chain: records completions

	mu  sync.Mutex
	out []Frame
	ops int64

	// Terminal only: the delivery ledger. Ids below floor were delivered
	// and are forgotten; recorded holds the ids at or above it already
	// enqueued, so it stays bounded by the stream's in-flight spread.
	floor      int64
	recorded   map[int64]bool
	doneIDs    []int64 // completions awaiting TakeDone
	doneFrames []Frame
}

// NewStage builds a filter stage of the given kind: "blur", "sharpen" or
// "threshold".
func NewStage(kind string) (*Stage, error) {
	switch kind {
	case "blur", "sharpen", "threshold":
		return &Stage{kind: kind}, nil
	default:
		return nil, fmt.Errorf("imagepipe: unknown stage kind %q", kind)
	}
}

// filter runs the stage's kernel on one frame. Callers hold s.mu.
func (s *Stage) filter(f Frame) Frame {
	out := make(Frame, len(f))
	switch s.kind {
	case "blur": // 3-tap box filter
		for i := range f {
			sum, n := f[i], 1.0
			if i > 0 {
				sum += f[i-1]
				n++
			}
			if i+1 < len(f) {
				sum += f[i+1]
				n++
			}
			out[i] = sum / n
			s.ops += 3
		}
	case "sharpen": // unsharp mask with the same 3-tap blur
		for i := range f {
			sum, n := f[i], 1.0
			if i > 0 {
				sum += f[i-1]
				n++
			}
			if i+1 < len(f) {
				sum += f[i+1]
				n++
			}
			out[i] = 2*f[i] - sum/n
			s.ops += 4
		}
	case "threshold":
		for i := range f {
			if f[i] >= 0.5 {
				out[i] = 1
			}
			s.ops += 1
		}
	}
	return out
}

// Apply filters one frame and returns the result; it also keeps the result
// so the terminal stage of a pipeline can be drained.
func (s *Stage) Apply(f Frame) Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.filter(f)
	s.out = append(s.out, out)
	return out
}

// Ingest is the streaming entry point: filter one identified frame and
// return (id, output) for the forward rule to carry to the next stage. A
// repeated id — a redelivered strand or an end-to-end retry — is filtered
// again (the filters are deterministic, so the output is byte-identical);
// the terminal stage's ledger enqueues each id at most once, and never one
// below the delivered floor.
func (s *Stage) Ingest(id int64, f Frame) (int64, Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.filter(f)
	if s.last && id >= s.floor && !s.recorded[id] {
		if s.recorded == nil {
			s.recorded = make(map[int64]bool)
		}
		s.recorded[id] = true
		s.doneIDs = append(s.doneIDs, id)
		s.doneFrames = append(s.doneFrames, out)
	}
	return id, out
}

// TakeDone drains the terminal stage's completion ledger: every (id, frame)
// pair that finished the full chain since the last drain, each id exactly
// once over the stage's lifetime. floor is the caller's delivered floor —
// every id below it was delivered — so the ledger forgets those ids and
// rejects them from then on.
func (s *Stage) TakeDone(floor int64) ([]int64, []Frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if floor > s.floor {
		s.floor = floor
		for id := range s.recorded {
			if id < floor {
				delete(s.recorded, id)
			}
		}
	}
	ids, frames := s.doneIDs, s.doneFrames
	s.doneIDs, s.doneFrames = nil, nil
	return ids, frames
}

// Results returns the frames this stage produced, in processing order.
func (s *Stage) Results() []Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Frame(nil), s.out...)
}

// TakeOps implements par.OpsReporter.
func (s *Stage) TakeOps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.ops
	s.ops = 0
	return ops
}

// Kinds is the stage sequence of the application's pipeline.
var Kinds = []string{"blur", "sharpen", "threshold"}

// Sequential applies the full filter chain to each frame — the oracle the
// woven pipeline is checked against.
func Sequential(frames []Frame) []Frame {
	out := make([]Frame, len(frames))
	for i, f := range frames {
		cur := f
		for _, k := range Kinds {
			s, _ := NewStage(k)
			cur = s.Apply(cur)
		}
		out[i] = cur
	}
	return out
}

// DefineClass registers the image Stage on a domain. Both ends of a
// distributed deployment — the streaming Service driver and every rminode
// worker daemon — call this, so the class (and its named "results" forward
// rule, which a peer-to-peer topology runs node-side) is defined
// identically in every process. The constructor takes the filter kind and,
// optionally, a terminal flag marking the stage that records completions.
func DefineClass(dom *par.Domain) *par.Class {
	return dom.Define("Stage",
		func(args []any) (any, error) {
			s, err := NewStage(args[0].(string))
			if err != nil {
				return nil, err
			}
			if len(args) > 1 {
				s.last = args[1].(bool)
			}
			return s, nil
		},
		map[string]par.MethodBody{
			"Apply": func(target any, args []any) ([]any, error) {
				return []any{target.(*Stage).Apply(args[0].(Frame))}, nil
			},
			"Ingest": func(target any, args []any) ([]any, error) {
				id, out := target.(*Stage).Ingest(args[0].(int64), args[1].(Frame))
				return []any{id, out}, nil
			},
			"TakeDone": func(target any, args []any) ([]any, error) {
				ids, frames := target.(*Stage).TakeDone(args[0].(int64))
				return []any{ids, frames}, nil
			},
			"Results": func(target any, args []any) ([]any, error) {
				return []any{target.(*Stage).Results()}, nil
			},
		}).Wire(Frame(nil), []Frame(nil), int64(0), []int64(nil)).
		// The application's one forward rule, NAMED so the nodes' forward
		// lanes can run it without the driver: a stage's results become the
		// next stage's arguments (Apply's frame, Ingest's id and frame).
		DefineForward("results", func(stage int, results, args []any) []any {
			if len(results) == 0 {
				return nil
			}
			return results
		})
}

// Wiring is the woven application: core class + pipeline + concurrency.
type Wiring struct {
	Dom   *par.Domain
	Class *par.Class
	Pipe  *par.Pipeline
	Conc  *par.Concurrency
	Stack *par.Stack
}

// Build wires the batch image pipeline: a three-stage par.Pipeline whose
// stage arguments select the filter kind, splitting one batch call into
// per-frame calls and forwarding each stage's output frame to the next
// stage. (The resident streaming deployment of the same class is Service.)
func Build() *Wiring {
	w := &Wiring{Dom: par.NewDomain()}
	w.Class = DefineClass(w.Dom)
	w.Pipe = par.NewPipeline(par.PipelineConfig{
		Class:  w.Class,
		Method: "Apply",
		Stages: len(Kinds),
		StageArgs: func(orig []any, stage int) []any {
			return []any{Kinds[stage]}
		},
		Split: func(args []any) [][]any {
			frames := args[0].([]Frame)
			parts := make([][]any, len(frames))
			for i, f := range frames {
				parts[i] = []any{f}
			}
			return parts
		},
		ForwardRule: "results",
	})
	w.Conc = par.NewConcurrency(aspect.Call("Stage", "Apply"))
	w.Stack = par.NewStack(w.Dom, w.Pipe, w.Conc)
	return w
}

// Process runs a batch of frames through the woven pipeline on the given
// execution context and returns the terminal stage's outputs.
func (w *Wiring) Process(ctx exec.Context, frames []Frame) ([]Frame, error) {
	head, err := w.Class.New(ctx, "blur") // duplicated into the whole chain
	if err != nil {
		return nil, err
	}
	if _, err := w.Class.Call(ctx, head, "Apply", frames); err != nil {
		return nil, err
	}
	if err := w.Stack.Join(ctx); err != nil {
		return nil, err
	}
	stages := w.Pipe.Managed()
	last := stages[len(stages)-1]
	marks := map[string]any{par.MarkInternal: true, par.MarkNoAsync: true}
	res, err := w.Class.CallMarked(ctx, marks, last, "Results")
	if err != nil {
		return nil, err
	}
	return res[0].([]Frame), nil
}
