package imagepipe

import (
	"math"
	"net"
	"testing"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

func requireLoopback(t *testing.T) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	l.Close()
}

// assertStream checks the collected results against the sequential oracle:
// every submitted id present, exactly once, byte-equal output.
func assertStream(t *testing.T, got map[int64]Frame, ids []int64, in, want []Frame) {
	t.Helper()
	if len(got) != len(ids) {
		t.Fatalf("delivered %d frames, want %d", len(got), len(ids))
	}
	for i, id := range ids {
		out, ok := got[id]
		if !ok {
			t.Fatalf("frame %d lost", id)
		}
		if len(out) != len(want[i]) {
			t.Fatalf("frame %d: %d samples, want %d", id, len(out), len(want[i]))
		}
		for j := range out {
			if math.Abs(out[j]-want[i][j]) > 1e-12 {
				t.Fatalf("frame %d sample %d = %v, want %v", id, j, out[j], want[i][j])
			}
		}
	}
}

// TestServiceStreamsOverTwoNodes is the happy-path resident service: an
// open-ended stream submitted in several waves over two real-TCP nodes,
// with the inner hops running peer-to-peer.
func TestServiceStreamsOverTwoNodes(t *testing.T) {
	requireLoopback(t)
	s, err := StartService(ServiceConfig{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(24, 32)
	want := Sequential(in)
	var ids []int64
	for lo := 0; lo < len(in); lo += 6 { // four waves of six
		batch, err := s.Submit(in[lo : lo+6])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertStream(t, got, ids, in, want)

	st := s.Stats()
	if st.Completed != int64(len(in)) || st.Duplicates != 0 {
		t.Errorf("stats: %+v", st)
	}
	// Peer-to-peer: every frame crosses two stage boundaries node-side.
	if min := int64(len(in)); st.Topo.PeerForwards < min {
		t.Errorf("PeerForwards = %d, want at least %d", st.Topo.PeerForwards, min)
	}
	if st.Topo.Installs == 0 {
		t.Error("topology was never installed")
	}
	if _, err := s.Submit(in[:1]); err == nil {
		t.Error("Submit after Drain should fail")
	}
}

// TestServiceAdmitsBatchLargerThanWindow pins the window's admission rule
// for a batch that could never fit: it goes in whole once nothing is
// pending, instead of waiting forever for room. The second batch waits for
// the first to drain, then goes in the same way.
func TestServiceAdmitsBatchLargerThanWindow(t *testing.T) {
	requireLoopback(t)
	s, err := StartService(ServiceConfig{Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(16, 16)
	want := Sequential(in)
	done := make(chan error, 1)
	var ids []int64
	go func() {
		for lo := 0; lo < len(in); lo += 8 {
			batch, err := s.Submit(in[lo : lo+8])
			if err != nil {
				done <- err
				return
			}
			ids = append(ids, batch...)
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit of a batch larger than Window never returned")
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	assertStream(t, got, ids, in, want)
}

// TestServiceSurvivesMidStreamStageKill is the chaos conformance cell: a
// node hosting a mid-pipeline stage is crashed while the stream is open.
// The fault layer reincarnates the stage, the topology control plane heals
// the hop and redelivers strands, the service's end-to-end retry re-ingests
// anything lost inside the dead process — and the delivered stream must
// still be exactly the oracle: no frame lost, none duplicated.
func TestServiceSurvivesMidStreamStageKill(t *testing.T) {
	requireLoopback(t)

	// The test owns the daemons so it can kill one: three nodes, one per
	// stage (round-robin placement puts stage i on node i).
	var nodes []*rmi.Node
	var addrs []string
	for i := 0; i < 3; i++ {
		node := rmi.NewNode(exec.Real())
		par.HostClass(node, DefineClass(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		nodes = append(nodes, node)
		addrs = append(addrs, addr)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	s, err := StartService(ServiceConfig{
		Addrs: addrs,
		Faults: par.FaultPolicy{
			Enabled: true, // failover is the default: the dead stage reincarnates
			Reconnect: rmi.ReconnectPolicy{
				MaxAttempts: 8, BaseBackoff: 2 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	in := frames(30, 24)
	want := Sequential(in)

	// First wave flows healthy, then the middle stage's node dies hard
	// mid-stream and the rest of the stream is submitted into the outage.
	ids, err := s.Submit(in[:10])
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("flush before kill: %v", err)
	}
	nodes[1].Abort()
	for lo := 10; lo < len(in); lo += 5 {
		batch, err := s.Submit(in[lo : lo+5])
		if err != nil {
			t.Fatalf("submit wave at %d: %v", lo, err)
		}
		ids = append(ids, batch...)
	}
	got, err := s.Drain()
	if err != nil {
		t.Fatalf("drain through the kill: %v (recorded: %v)", err, s.Err())
	}
	assertStream(t, got, ids, in, want)

	st := s.Stats()
	t.Logf("stats through the kill: %+v", st)
	if st.Duplicates != 0 {
		t.Errorf("duplicated deliveries: %+v", st)
	}
	if st.Completed != int64(len(in)) {
		t.Errorf("completed %d of %d", st.Completed, len(in))
	}
}
