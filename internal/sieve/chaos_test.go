package sieve

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// This file is the chaos half of the net conformance harness: the same
// module-matrix cells, re-run with seeded fault injection. A watcher kills a
// node daemon after a randomized-but-seeded number of served requests — mid
// window, mid export, mid gather, wherever the seed lands — and restarts a
// fresh incarnation on the same address. The run must still match the
// hand-coded oracle exactly (exactly-once completion: no pack lost, none
// filtered twice) and the scheduler's work-conservation invariant
// Executed == Seeded + Splits must hold through the crash.
//
// The seed comes from CHAOS_SEED (default 1); every failure message carries
// the seed and kill point, so CI failures reproduce locally with
// CHAOS_SEED=<seed> go test -race -run TestChaos ./internal/sieve.

// chaosSeed returns the harness seed (CHAOS_SEED, default 1).
func chaosSeed(t *testing.T) int64 {
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q: %v", s, err)
	}
	return v
}

// chaosNodes is a restartable set of loopback node daemons hosting
// PrimeFilter, each on its own fresh domain.
type chaosNodes struct {
	t     *testing.T
	clk   clock.Clock // nil keeps the wall clock
	addrs []string

	mu    sync.Mutex
	nodes []*rmi.Node
}

func startChaosNodes(t *testing.T, count int) *chaosNodes {
	t.Helper()
	return startChaosNodesClock(t, count, nil)
}

// startChaosNodesClock is startChaosNodes with every node daemon (including
// later crash-restarted incarnations) on clk, so injected delays and drain
// windows run in virtual time.
func startChaosNodesClock(t *testing.T, count int, clk clock.Clock) *chaosNodes {
	t.Helper()
	c := &chaosNodes{t: t, clk: clk}
	for i := 0; i < count; i++ {
		node := rmi.NewNode(exec.Real(), rmi.WithClock(clk))
		par.HostClass(node, DefineClass(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		c.nodes = append(c.nodes, node)
		c.addrs = append(c.addrs, addr)
	}
	t.Cleanup(func() {
		c.mu.Lock()
		nodes := append([]*rmi.Node(nil), c.nodes...)
		c.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	})
	return c
}

func (c *chaosNodes) node(i int) *rmi.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// crashRestart kills node i (abandoning everything in flight) and brings up
// a fresh incarnation — new epoch, empty registry — on the same address. It
// returns the requests the killed incarnation had served.
func (c *chaosNodes) crashRestart(i int) (int64, error) {
	c.mu.Lock()
	old := c.nodes[i]
	c.mu.Unlock()
	old.Abort()
	served := old.Requests()
	node := rmi.NewNode(exec.Real(), rmi.WithClock(c.clk))
	par.HostClass(node, DefineClass(par.NewDomain()))
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if _, err = node.Listen(c.addrs[i]); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return served, fmt.Errorf("restart node %d on %s: %w", i, c.addrs[i], err)
	}
	c.mu.Lock()
	c.nodes[i] = node
	c.mu.Unlock()
	return served, nil
}

// watchAndKill crash-restarts the victim the moment it has served killAt
// requests — an event fired by the server's own dispatch loop, not a polled
// counter, so the kill lands at the same request boundary on every run.
// Once the fresh incarnation is up it calls killed with the requests the
// victim had served when it died; it does not call it when stop closed
// first.
func (c *chaosNodes) watchAndKill(victim int, killAt int64, stop <-chan struct{}, killed func(served int64)) {
	select {
	case <-stop:
		return
	case <-c.node(victim).WatchRequests(killAt):
	}
	if served, err := c.crashRestart(victim); err == nil {
		killed(served)
	}
}

// killedMidRun reports whether a kill that fired left the run anything to
// recover from. The restarted incarnation starts counting at zero, so its
// served requests are exactly what the run sent the victim after the kill:
// a reconnect, a replay, a re-creation. None means the kill landed after
// the victim's last request (its served-request watermark was final) — the
// run finished without needing the fault path, and that is not a failure.
func (c *chaosNodes) killedMidRun(victim int, killedAt int64) bool {
	return killedAt >= 0 && c.node(victim).Requests() > 0
}

// chaosCell is one fault-injected conformance cell: a matrix combo plus the
// fault policy it runs under.
type chaosCell struct {
	name   string
	combo  Combo
	policy par.FaultPolicy
}

func chaosCells() []chaosCell {
	fast := rmi.ReconnectPolicy{MaxAttempts: 20, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	return []chaosCell{
		// The windowed self-scheduling farms: pipelined in-flight calls are
		// journaled and replayed across the crash.
		{"dynamic-replay", Combo{PartDynamicFarm, ConcMerged, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
		{"stealing-replay", Combo{PartStealingFarm, ConcMerged, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
		// Scheduler reabsorption: the crash's orphaned packs are handed back
		// retryable and a surviving replica's worker re-executes them.
		{"stealing-requeue", Combo{PartStealingFarm, ConcMerged, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast, RequeueOrphans: true}},
		// The static farm's one-way void window: fire-and-forget sends
		// journaled until their acks, replayed with server-side dedupe.
		{"static-oneway", Combo{PartFarm, ConcAsync, DistNet},
			par.FaultPolicy{Enabled: true, Reconnect: fast}},
	}
}

// TestChaosMatrix re-runs net conformance cells under seeded node kills:
// a node daemon dies mid-run at a scripted request count and restarts; the
// primes must still equal the hand-coded oracle and the scheduler's
// accounting must conserve work through the crash.
func TestChaosMatrix(t *testing.T) {
	requireLoopback(t)
	seed := chaosSeed(t)
	p := matrixParams()
	p.Packs = 24 // enough in-flight traffic that scripted kills land mid-window
	p.Window = 2
	p.NetStreams = 2 // crashes must be survivable with multiplexed streams, too
	want, err := HandSequential(p.Max)
	if err != nil {
		t.Fatal(err)
	}
	const killPoints = 3
	for ci, cell := range chaosCells() {
		cell := cell
		ci := ci
		t.Run(cell.name, func(t *testing.T) {
			for k := 0; k < killPoints; k++ {
				rng := rand.New(rand.NewSource(seed<<16 + int64(ci)<<8 + int64(k)))
				nodes := startChaosNodes(t, 2)
				victim := rng.Intn(2)
				killAt := int64(4 + rng.Intn(10))
				tag := fmt.Sprintf("seed=%d cell=%s kill=%d victim=%d killAt=%d", seed, cell.name, k, victim, killAt)
				stop := make(chan struct{})
				var killedAt atomic.Int64
				killedAt.Store(-1)
				go nodes.watchAndKill(victim, killAt, stop, killedAt.Store)

				pc := p
				pc.NetAddrs = nodes.addrs
				pc.Faults = cell.policy
				res, err := RunCombo(cell.combo, pc)
				close(stop)
				if err != nil {
					t.Fatalf("%s: run failed: %v", tag, err)
				}
				assertPrimesEqual(t, res.Primes, want)
				if st := res.Steals; st.Executed != st.Seeded+st.Splits {
					t.Errorf("%s: work conservation broken: Executed %d != Seeded %d + Splits %d",
						tag, st.Executed, st.Seeded, st.Splits)
				}
				if nodes.killedMidRun(victim, killedAt.Load()) {
					f := res.Faults
					if f.Reconnects+f.Failovers+f.DroppedPeers+f.Requeues == 0 {
						t.Errorf("%s: node was killed mid-run but FaultStats is empty: %+v", tag, f)
					}
					if f.DroppedPeers > 0 && !cell.policy.NoFailover && f.Failovers == 0 {
						t.Errorf("%s: peer dropped without failing its objects over: %+v", tag, f)
					}
					t.Logf("%s: recovered (stats %+v)", tag, f)
				} else if w := killedAt.Load(); w >= 0 {
					t.Logf("%s: kill at watermark %d landed after the victim's last request", tag, w)
				} else {
					t.Logf("%s: kill fired after the run finished (faster run than kill point)", tag)
				}
			}
		})
	}
}
