package bench

import (
	"fmt"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// StreamPoint is one measured cell of the resident-service sweep: an
// open-ended frame stream driven through the imagepipe Service over
// loopback nodes, with the stage topology installed so every inner hop runs
// peer-to-peer. Where the net-throughput sweep prices one round-trip call,
// this cell prices the full streaming path: windowed one-way ingest, two
// node-side hops, ledger drain.
type StreamPoint struct {
	Frames       int
	FrameLen     int // float64 samples per frame
	Window       int // in-flight frames the service admits
	Elapsed      time.Duration
	FramesPerSec float64
	MBPerSec     float64 // input payload moved per second
	PeerForwards int64   // node-side hops in the measured window (frames × inner boundaries)
}

// streamDeployment is the cell's two loopback daemons plus a control stub
// on each, through which the bench reads the daemons' own hop counters.
type streamDeployment struct {
	nodes []*rmi.Node
	addrs []string
	ctls  []*rmi.Stub
}

func startStreamNodes(count int) (*streamDeployment, error) {
	d := &streamDeployment{}
	for i := 0; i < count; i++ {
		node := rmi.NewNode(exec.Real())
		d.nodes = append(d.nodes, node)
		par.HostClass(node, imagepipe.DefineClass(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, fmt.Errorf("bench: stream node %d: %w", i, err)
		}
		client, err := rmi.Dial(addr)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("bench: stream node %d control: %w", i, err)
		}
		ctl, err := client.Lookup(rmi.ControlName)
		if err != nil {
			client.Close()
			d.close()
			return nil, fmt.Errorf("bench: stream node %d control: %w", i, err)
		}
		d.ctls = append(d.ctls, ctl)
		d.addrs = append(d.addrs, addr)
	}
	return d, nil
}

// hops sums the forward hops the daemons delivered (initiated minus
// stranded, par.TopologyStats.PeerForwards' definition). Unlike the
// service's own counter, which reflects its last completion poll, this is
// exact once Flush returned: every hop was initiated before its frame
// reached the terminal ledger.
func (d *streamDeployment) hops() (int64, error) {
	var total int64
	for i, ctl := range d.ctls {
		res, err := ctl.Invoke(rmi.CtlPipePoll, "", false)
		if err != nil {
			return 0, fmt.Errorf("bench: pipe poll node %d: %w", i, err)
		}
		st, ok := res[0].(rmi.PipeStatus)
		if !ok {
			return 0, fmt.Errorf("bench: pipe poll node %d returned %T", i, res[0])
		}
		total += st.Initiated - st.StrandedCum
	}
	return total, nil
}

func (d *streamDeployment) close() {
	for _, ctl := range d.ctls {
		ctl.Client().Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
}

// StreamThroughput measures the resident streaming service: frames
// frame-sized payloads submitted in submit-sized waves against a two-node
// deployment, drained to completion. Best of runs is reported.
func StreamThroughput(frames, frameLen, window, runs int) (StreamPoint, error) {
	pt := StreamPoint{Frames: frames, FrameLen: frameLen, Window: window}

	input := make([]imagepipe.Frame, frames)
	for i := range input {
		f := make(imagepipe.Frame, frameLen)
		for j := range f {
			f[j] = float64((i+j)%97) / 97
		}
		input[i] = f
	}
	wave := window / 2
	if wave < 1 {
		wave = 1
	}
	drive := func(s *imagepipe.Service, n int) error {
		for lo := 0; lo < n; lo += wave {
			hi := lo + wave
			if hi > n {
				hi = n
			}
			if _, err := s.Submit(input[lo:hi]); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
		s.Take()
		return nil
	}

	if runs < 1 {
		runs = 1
	}
	best := time.Duration(0)
	run := func() (time.Duration, int64, error) {
		d, err := startStreamNodes(2)
		if err != nil {
			return 0, 0, err
		}
		defer d.close()
		s, err := imagepipe.StartService(imagepipe.ServiceConfig{Addrs: d.addrs, Window: window})
		if err != nil {
			return 0, 0, fmt.Errorf("bench: stream service: %w", err)
		}
		defer s.Close()
		if err := drive(s, frames/10+1); err != nil { // warm lanes and caches
			return 0, 0, err
		}
		before, err := d.hops()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := drive(s, frames); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		after, err := d.hops()
		return elapsed, after - before, err
	}
	for r := 0; r < runs; r++ {
		elapsed, hops, err := run()
		if err != nil {
			return pt, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
			pt.PeerForwards = hops
		}
	}
	pt.Elapsed = best
	secs := best.Seconds()
	pt.FramesPerSec = float64(frames) / secs
	pt.MBPerSec = float64(frames) * float64(8*frameLen) / secs / (1 << 20)
	return pt, nil
}

// StreamEntries renders the point as a record entry next to the transport
// cells: Max carries the frame length, Packs the frame count.
func StreamEntries(p StreamPoint) []Entry {
	return []Entry{{
		Experiment:  "stream-throughput",
		Series:      "imagepipe-topology",
		Window:      p.Window,
		Max:         p.FrameLen,
		Packs:       p.Frames,
		CallsPerSec: p.FramesPerSec,
		MBPerSec:    p.MBPerSec,
	}}
}

// FormatStream renders the streaming cell as a table row.
func FormatStream(p StreamPoint) string {
	var b []byte
	b = fmt.Appendf(b, "Stream throughput - resident imagepipe service, peer-to-peer hops\n\n")
	b = fmt.Appendf(b, "%-20s %8s %8s %12s %12s %12s %10s\n",
		"series", "frames", "window", "frames/s", "MB/s", "hops", "elapsed")
	b = fmt.Appendf(b, "%-20s %8d %8d %12.0f %12.2f %12d %10s\n",
		"imagepipe-topology", p.Frames, p.Window, p.FramesPerSec, p.MBPerSec,
		p.PeerForwards, p.Elapsed.Round(time.Millisecond))
	return string(b)
}
