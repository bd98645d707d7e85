package main

import (
	"fmt"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
	"aspectpar/internal/sieve"
)

// The rungs are the cost ladder: each times one layer's public call in
// isolation, repeated, and reports the median repetition's cost per call.
// Allocation counts are process-wide, so they include the server side of
// a loopback call, as the rmi allocation tests count it.

const rungReps = 3

// rungSink keeps the compiler from dropping the measured calls.
var rungSink any

// rung times fn(n) rungReps times and returns the median per-call time and
// allocations.
func rung(tr *tracer, name string, n int, fn func(n int) error) (time.Duration, float64, error) {
	var costs, allocs []float64
	for i := 0; i < rungReps; i++ {
		before := readProc()
		start := time.Now()
		if err := fn(n); err != nil {
			return 0, 0, fmt.Errorf("rung %s: %w", name, err)
		}
		end := time.Now()
		after := readProc()
		tr.record(tr.newID(), "rung."+name, start, end, 0, int64(i), 0)
		costs = append(costs, float64(end.Sub(start))/float64(n))
		allocs = append(allocs, float64(after.allocs-before.allocs)/float64(n))
	}
	return time.Duration(median(costs)), median(allocs), nil
}

// runRungs measures every rung and returns them as per-layer metrics.
func runRungs(cfg config, tr *tracer) (map[string]float64, error) {
	scale := 1
	if cfg.quick {
		scale = 20
	}
	out := make(map[string]float64)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// rmi codec: one-way sends of a frame, which takes the gob fallback,
	// and of a plain []float64 of the same length, which does not.
	frame := make(imagepipe.Frame, streamFrameLen)
	for i := range frame {
		frame[i] = float64(i) / streamFrameLen
	}
	floats := []float64(frame)
	rmi.RegisterType(imagepipe.Frame(nil))
	for _, c := range []struct {
		name string
		arg  any
	}{{"rmi_send_frame", frame}, {"rmi_send_f64s", floats}} {
		stubs, stop, err := rawRMI(rmi.BinaryCodec())
		if err != nil {
			return nil, err
		}
		d, _, err := rung(tr, c.name, 20_000/scale, func(n int) error {
			for i := 0; i < n; i++ {
				if err := stubs[0].Send("Sink", c.arg); err != nil {
					return err
				}
			}
			return stubs[0].Flush()
		})
		stop()
		if err != nil {
			return nil, err
		}
		out["rung."+c.name+"_us"] = us(d)
	}

	// rmi transport: windowed round trips of the echo payload, raw stubs.
	payload := make([]int32, echoPayload)
	for i := range payload {
		payload[i] = int32(i)
	}
	for _, c := range []struct {
		name  string
		codec rmi.Codec
	}{{"rmi_call", rmi.BinaryCodec()}, {"rmi_gob_call", rmi.GobCodec()}} {
		stubs, stop, err := rawRMI(c.codec)
		if err != nil {
			return nil, err
		}
		d, allocs, err := rung(tr, c.name, 20_000/scale, func(n int) error { return windowedCalls(stubs, payload, n) })
		stop()
		if err != nil {
			return nil, err
		}
		out["rung."+c.name+"_us"] = us(d)
		if c.name == "rmi_call" {
			out["rung.rmi_allocs_per_call"] = allocs
		}
	}

	// par NetRMI: the same calls through the middleware rpc-echo uses.
	d, allocs, err := netrmiRung(tr, payload, 20_000/scale)
	if err != nil {
		return nil, err
	}
	out["rung.netrmi_call_us"] = us(d)
	out["netrmi.allocs_per_call"] = allocs

	// aspect weaver: a woven call on a local object with no modules plugged,
	// and the same method body called directly.
	dom := par.NewDomain()
	body := func(target any, args []any) ([]any, error) { return args, nil }
	class := dom.Define("Echo", func([]any) (any, error) { return &struct{}{}, nil },
		map[string]par.MethodBody{"Echo": body})
	ctx := exec.Real()
	obj, err := class.New(ctx)
	if err != nil {
		return nil, err
	}
	d, allocs, err = rung(tr, "woven_call", 200_000/scale, func(n int) error {
		for i := 0; i < n; i++ {
			res, err := class.Call(ctx, obj, "Echo", payload)
			if err != nil {
				return err
			}
			rungSink = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["rung.woven_call_ns"] = float64(d)
	out["rung.woven_allocs_per_call"] = allocs
	d, _, err = rung(tr, "direct_call", 200_000/scale, func(n int) error {
		for i := 0; i < n; i++ {
			res, err := body(obj, []any{payload})
			if err != nil {
				return err
			}
			rungSink = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["rung.direct_call_ns"] = float64(d)

	// sieve core: the single-threaded filter over sieve-farm's candidates.
	const sieveMax = 1_000_000
	sqrtMax := sieve.ISqrt(sieveMax)
	candidates := sieve.Candidates(sqrtMax, sieveMax)
	var filters []*sieve.PrimeFilter
	for i := 0; i < rungReps; i++ {
		f, err := sieve.NewPrimeFilter(2, sqrtMax)
		if err != nil {
			return nil, err
		}
		filters = append(filters, f)
	}
	rep := 0
	d, _, err = rung(tr, "seq_core", 1, func(int) error {
		rungSink = filters[rep].Filter(candidates)
		rep++
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["farm.seq_core_ms"] = ms(d)
	return out, nil
}

// rawRMI serves an echo object on a loopback rmi.Server and returns two
// stubs of one client speaking codec, on streams 1 and 2, and a function
// that stops both ends.
func rawRMI(codec rmi.Codec) ([]*rmi.Stub, func(), error) {
	srv := rmi.NewServer()
	srv.Export("echo", func(method string, args []any) ([]any, error) {
		if method == "Sink" {
			return nil, nil
		}
		return args, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	client, err := rmi.Dial(addr, rmi.WithCodec(codec))
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	stop := func() {
		client.Close()
		srv.Close()
	}
	stub, err := client.Lookup("echo")
	if err != nil {
		stop()
		return nil, nil, err
	}
	return []*rmi.Stub{stub.OnStream(1), stub.OnStream(2)}, stop, nil
}

// windowedCalls keeps echoWindow InvokeCB calls in flight until n are done,
// alternating between the stubs.
func windowedCalls(stubs []*rmi.Stub, payload []int32, n int) error {
	// Sized to the window: at most echoWindow callbacks are outstanding.
	done := make(chan error, echoWindow)
	deliver := func(res []any, _ time.Duration, err error) { done <- err }
	issued, inflight := 0, 0
	for issued < n || inflight > 0 {
		for inflight < echoWindow && issued < n {
			stubs[issued%len(stubs)].InvokeCB("Echo", deliver, payload)
			issued++
			inflight++
		}
		if err := <-done; err != nil {
			return err
		}
		inflight--
	}
	return nil
}

// netrmiRung runs windowed NetRMI calls on a fresh deployment shaped like
// rpc-echo's: one daemon, two objects, binary codec, two streams.
func netrmiRung(tr *tracer, payload []int32, n int) (time.Duration, float64, error) {
	ctx := exec.Real()
	nodes, addrs, err := startNodes(1, func(*par.Domain) *par.Class { return echoClass() })
	if err != nil {
		return 0, 0, err
	}
	defer closeNodes(nodes)
	mw, err := par.DialNet(par.NetAddressTable(addrs...), par.WithCodec(rmi.BinaryCodec()), par.WithStreams(2))
	if err != nil {
		return 0, 0, err
	}
	defer mw.Close()
	var objs []any
	for i := 0; i < 2; i++ {
		obj, err := mw.ExportNew(ctx, fmt.Sprintf("echo%d", i), 0, echoClass(), nil, nil)
		if err != nil {
			return 0, 0, err
		}
		objs = append(objs, obj)
	}
	done := ctx.NewChan(echoWindow)
	return rung(tr, "netrmi_call", n, func(n int) error {
		issued, inflight := 0, 0
		for issued < n || inflight > 0 {
			for inflight < echoWindow && issued < n {
				mw.InvokeAsync(ctx, objs[issued%2], "Echo", []any{payload}, false, done)
				issued++
				inflight++
			}
			v, _ := done.Recv(ctx)
			if _, err := v.(*par.Completion).Reclaim(ctx); err != nil {
				return err
			}
			inflight--
		}
		return nil
	})
}
