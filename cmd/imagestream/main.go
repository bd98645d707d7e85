// Command imagestream feeds the resident image-pipeline streaming service:
// the driver-less deployment of internal/apps/imagepipe, where the filter
// chain (blur | sharpen | threshold) stays exported on rminode worker
// daemons with the stage topology installed, and every stage-to-stage hop
// runs peer-to-peer between the nodes. This client only submits frames into
// stage 0 (windowed, one-way) and drains completions from the terminal
// stage's ledger, which delivers each frame exactly once; a frame not
// delivered within the service's retry deadline is re-submitted from the
// head. A -wave larger than -window goes in whole once the stream is empty.
//
// A two-node streaming session:
//
//	terminal 1:  go run ./cmd/rminode -addr 127.0.0.1:9101
//	terminal 2:  go run ./cmd/rminode -addr 127.0.0.1:9102
//	terminal 3:  go run ./cmd/imagestream -net 127.0.0.1:9101,127.0.0.1:9102 \
//	                 -frames 500 -verify
//
// With no -net list the command launches two in-process loopback daemons —
// the same deployment, one process. -faults arms the middleware's
// resilience layer so a daemon crash mid-stream strands, redelivers and
// retries instead of failing the run (pair with rminode -drill-crash).
// -registry discovers the daemons through an elastic-pool registry
// (cmd/poolctl) instead of a static list.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/par"
)

func main() {
	var (
		netAddrs = flag.String("net", "", "comma-separated rminode addresses (empty = two in-process loopback daemons)")
		registry = flag.String("registry", "", "elastic-pool registry to discover daemons through instead of -net")
		frames   = flag.Int("frames", 500, "frames to stream")
		size     = flag.Int("size", 256, "float64 samples per frame")
		window   = flag.Int("window", 32, "in-flight frames the service admits (ingest backpressure)")
		wave     = flag.Int("wave", 16, "frames per Submit call")
		faults   = flag.Bool("faults", false, "arm the fault-tolerance layer: journaled ingest, reconnect/replay, stage failover, strand redelivery")
		verify   = flag.Bool("verify", false, "check every delivered frame against the sequential filter chain")
	)
	flag.Parse()

	cfg := imagepipe.ServiceConfig{
		Registry: *registry,
		Window:   *window,
	}
	if *netAddrs != "" {
		for _, a := range strings.Split(*netAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Addrs = append(cfg.Addrs, a)
			}
		}
	}
	if *faults {
		cfg.Faults = par.FaultPolicy{Enabled: true}
	}

	s, err := imagepipe.StartService(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagestream:", err)
		os.Exit(1)
	}
	defer s.Close()

	input := make([]imagepipe.Frame, *frames)
	for i := range input {
		f := make(imagepipe.Frame, *size)
		for j := range f {
			f[j] = math.Abs(math.Sin(float64(i**size + j)))
		}
		input[i] = f
	}

	where := fmt.Sprintf("%d nodes", len(cfg.Addrs))
	if *registry != "" {
		where = "pool at " + *registry
	} else if len(cfg.Addrs) == 0 {
		where = "2 in-process nodes"
	}
	fmt.Printf("imagestream: streaming %d frames (%d samples) through %s over %s, window %d\n",
		*frames, *size, strings.Join(imagepipe.Kinds, " | "), where, *window)

	start := time.Now()
	var ids []int64
	for lo := 0; lo < len(input); lo += *wave {
		hi := lo + *wave
		if hi > len(input) {
			hi = len(input)
		}
		batch, err := s.Submit(input[lo:hi])
		if err != nil {
			fmt.Fprintln(os.Stderr, "imagestream: submit:", err)
			os.Exit(1)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		fmt.Fprintln(os.Stderr, "imagestream: drain:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	st := s.Stats()
	fmt.Printf("delivered    : %d/%d frames in %s (%.0f frames/s), %d retried, %d duplicated\n",
		len(got), len(ids), elapsed.Round(time.Millisecond),
		float64(len(got))/elapsed.Seconds(), st.Retried, st.Duplicates)
	fmt.Printf("topology     : %d installs, %d peer-to-peer hops, %d stranded, %d redelivered\n",
		st.Topo.Installs, st.Topo.PeerForwards, st.Topo.Stranded, st.Topo.Redelivered)

	if *verify {
		want := imagepipe.Sequential(input)
		for i, id := range ids {
			out, ok := got[id]
			if !ok {
				fmt.Printf("verification : FAILED (frame %d lost)\n", id)
				os.Exit(1)
			}
			for j := range out {
				if math.Abs(out[j]-want[i][j]) > 1e-12 {
					fmt.Printf("verification : FAILED (frame %d sample %d: %v != %v)\n",
						id, j, out[j], want[i][j])
					os.Exit(1)
				}
			}
		}
		fmt.Println("verification : OK (every frame matches the sequential filter chain)")
	}
}
