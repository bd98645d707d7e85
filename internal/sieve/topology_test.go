package sieve

import (
	"testing"
)

// TestPipelineTopologyMatchesClientForward pins peer-to-peer forwarding
// byte-equal against the forwarding that runs in the driver's process: the
// same pipeline cell over the simulated middleware, where the forward
// advice applies the "survivors" rule in-process. Both must equal the
// hand-coded oracle, for both concurrency settings of the pipeline cells,
// and the real-middleware run must have carried its hops node-side.
func TestPipelineTopologyMatchesClientForward(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []ConcurrencyKind{ConcNone, ConcAsync} {
		c := Combo{Partition: PartPipeline, Concurrency: conc, Distribution: DistNet}
		t.Run(c.String(), func(t *testing.T) {
			topoRes, err := RunCombo(c, p)
			if err != nil {
				t.Fatalf("topology run: %v", err)
			}
			local := c
			local.Distribution = DistRMI
			localRes, err := RunCombo(local, p)
			if err != nil {
				t.Fatalf("in-process forwarding run: %v", err)
			}
			assertPrimesEqual(t, topoRes.Primes, want)
			assertPrimesEqual(t, localRes.Primes, topoRes.Primes)
			if topoRes.Topo.PeerForwards == 0 {
				t.Errorf("topology run forwarded no hops node-side (stats %+v)", topoRes.Topo)
			}
			if localRes.Topo.PeerForwards != 0 {
				t.Errorf("in-process run used a node forward lane: %+v", localRes.Topo)
			}
		})
	}
}

// TestPipelineTopologyNoPerHopDoubling is the conformance and traffic cell
// of peer-to-peer pipeline forwarding (par.Topology) over the real
// middleware. The pipeline runs at 3 and at 6 stages and must compute
// exactly the hand-coded oracle's primes both times. Each added stage adds
// one stage boundary, which the nodes' forward lanes cross once per pack;
// the driver only places the stage and polls for quiescence, so its
// traffic grows by less than the added peer hops — no hop doubles back
// through the driver.
func TestPipelineTopologyNoPerHopDoubling(t *testing.T) {
	requireLoopback(t)
	p := netParams()
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	for _, conc := range []ConcurrencyKind{ConcNone, ConcAsync} {
		c := Combo{Partition: PartPipeline, Concurrency: conc, Distribution: DistNet}
		t.Run(c.String(), func(t *testing.T) {
			var runs []Result
			for _, stages := range []int{3, 6} {
				q := p
				q.Filters = stages
				res, err := RunCombo(c, q)
				if err != nil {
					t.Fatalf("%d stages: %v", stages, err)
				}
				assertPrimesEqual(t, res.Primes, want)
				// Every pack survives every stage at this size, so each of
				// the stages-1 boundaries carries one hop per pack.
				if got, want := res.Topo.PeerForwards, int64((stages-1)*p.Packs); got != want {
					t.Errorf("%d stages: PeerForwards = %d, want %d", stages, got, want)
				}
				if res.Topo.Stranded != 0 || res.Topo.Redelivered != 0 || res.Topo.Installs == 0 {
					t.Errorf("%d stages: healthy run topology stats %+v", stages, res.Topo)
				}
				runs = append(runs, res)
			}
			hops := runs[1].Topo.PeerForwards - runs[0].Topo.PeerForwards
			msgs := runs[1].Comm.Messages - runs[0].Comm.Messages
			t.Logf("driver messages %d → %d for peer hops %d → %d", runs[0].Comm.Messages, runs[1].Comm.Messages, runs[0].Topo.PeerForwards, runs[1].Topo.PeerForwards)
			if msgs >= hops {
				t.Errorf("3 added stages cost the driver %d messages for %d peer hops: the hops doubled back through it", msgs, hops)
			}
		})
	}
}
