package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// poolRig is the elastic-pool fixture: a registry servant on its own server
// plus worker node daemons hosting the Acc class, all on one virtual clock.
// Tests drive membership through the registry servant directly (Register /
// Deregister / interval manipulation) and pump the pool with manual Refresh
// (WithPoolPoll(0)), so every reconciliation step is deterministic.
type poolRig struct {
	t       *testing.T
	v       *clock.Virtual
	reg     *rmi.Registry
	regSrv  *rmi.Server
	regAddr string

	mu    sync.Mutex
	nodes map[string]*rmi.Node
}

func startPoolRig(t *testing.T) *poolRig {
	t.Helper()
	r := &poolRig{t: t, v: clock.NewVirtual(time.Unix(0, 0)), nodes: make(map[string]*rmi.Node)}
	r.reg = rmi.NewRegistry(r.v, 2)
	r.regSrv = rmi.NewServer(rmi.WithClock(r.v))
	r.reg.Bind(r.regSrv)
	addr, err := r.regSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	r.regAddr = addr
	t.Cleanup(func() {
		r.regSrv.Close()
		r.mu.Lock()
		nodes := r.nodes
		r.nodes = map[string]*rmi.Node{}
		r.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
		r.v.Close()
	})
	return r
}

// addNode launches a worker daemon and registers it as a trusted member
// (interval 0: healthy until the test says otherwise).
func (r *poolRig) addNode() string {
	r.t.Helper()
	node := rmi.NewNode(exec.Real())
	HostClass(node, defineAcc(NewDomain(), nil, nil))
	addr, err := node.Listen("127.0.0.1:0")
	if err != nil {
		r.t.Fatal(err)
	}
	r.mu.Lock()
	r.nodes[addr] = node
	r.mu.Unlock()
	r.reg.Register(addr, node.Epoch(), 0)
	return addr
}

// markUnhealthy rewrites a member's record with a tiny heartbeat interval
// and pushes virtual time past the miss window, so the next Members read
// reports it unhealthy — the deterministic stand-in for missed beats.
func (r *poolRig) markUnhealthy(addr string) {
	r.reg.Heartbeat(addr, 0, time.Nanosecond)
	r.v.Advance(time.Millisecond)
}

// markHealthy restores a member to trusted (interval 0) health.
func (r *poolRig) markHealthy(addr string) {
	r.reg.Heartbeat(addr, 0, 0)
}

func memberByAddr(ms []PoolMember, addr string) (PoolMember, bool) {
	for _, m := range ms {
		if m.Addr == addr {
			return m, true
		}
	}
	return PoolMember{}, false
}

// TestPoolReconcile walks the pool's whole membership state machine under
// manual Refresh: join fires OnJoin and widens the table; consecutive
// unhealthy observations cordon after the threshold (placements skip the
// member); healing inside the drain grace lifts the cordon; a deregistered
// member is cordoned and drained without grace.
func TestPoolReconcile(t *testing.T) {
	r := startPoolRig(t)
	addrA, addrB := r.addNode(), r.addNode()

	pool, err := DialPool(r.regAddr,
		WithPoolPoll(0), WithCordonAfter(2), WithDrainGrace(time.Hour),
		WithPoolNet(WithNetClock(r.v), WithFaultPolicy(FaultPolicy{Enabled: true})))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	m := pool.Middleware()
	if m.Nodes() != 2 {
		t.Fatalf("pool started with %d nodes, want 2", m.Nodes())
	}

	var joined []string
	pool.OnJoin(func(node exec.NodeID, addr string) { joined = append(joined, addr) })

	// A third daemon joins: the table widens and the hook fires.
	addrC := r.addNode()
	if err := pool.Refresh(); err != nil {
		t.Fatalf("refresh after join: %v", err)
	}
	if len(joined) != 1 || joined[0] != addrC {
		t.Fatalf("OnJoin saw %v, want [%s]", joined, addrC)
	}
	if m.Nodes() != 3 {
		t.Fatalf("table has %d nodes after the join, want 3", m.Nodes())
	}
	mc, ok := memberByAddr(pool.Members(), addrC)
	if !ok || mc.Cordoned {
		t.Fatalf("joined member %+v, want uncordoned", mc)
	}

	// B misses beats. One unhealthy observation is below the threshold...
	r.markUnhealthy(addrB)
	if err := pool.Refresh(); err != nil {
		t.Fatal(err)
	}
	if mb, _ := memberByAddr(pool.Members(), addrB); mb.Cordoned {
		t.Fatal("one unhealthy observation cordoned below the threshold")
	}
	// ...the second crosses it: cordoned, no new placements land there.
	if err := pool.Refresh(); err != nil {
		t.Fatal(err)
	}
	mb, _ := memberByAddr(pool.Members(), addrB)
	if !mb.Cordoned || mb.Drained {
		t.Fatalf("member after threshold: %+v, want cordoned and not yet drained (grace pending)", mb)
	}
	for _, id := range m.eligibleIDs() {
		if id == mb.Node {
			t.Fatal("cordoned node still eligible for placements")
		}
	}
	place := pool.Placement()
	for i := 0; i < 6; i++ {
		if n := place.NodeFor(i); n == mb.Node {
			t.Fatal("live placement selected a cordoned node")
		}
	}

	// B heals inside the hour-long grace: uncordoned, placements kept.
	r.markHealthy(addrB)
	if err := pool.Refresh(); err != nil {
		t.Fatal(err)
	}
	mb, _ = memberByAddr(pool.Members(), addrB)
	if mb.Cordoned || mb.Drained {
		t.Fatalf("member after healing inside the grace: %+v, want uncordoned and undrained", mb)
	}

	// C deregisters (graceful departure): cordon and drain with no grace.
	r.reg.Deregister(addrC)
	if err := pool.Refresh(); err != nil {
		t.Fatalf("refresh after departure: %v", err)
	}
	mc, _ = memberByAddr(pool.Members(), addrC)
	if !mc.Cordoned || !mc.Drained {
		t.Fatalf("departed member: %+v, want cordoned and drained", mc)
	}

	_, _ = addrA, addrB
}

// TestPoolDrainMigratesLiveNode pins the drain step against real state: two
// exports with mutated server-side sums live on the drained node; Drain
// migrates them to survivors with their state replayed, the sums read back
// intact, and further calls land on the new home.
func TestPoolDrainMigratesLiveNode(t *testing.T) {
	r := startFaultRig(t, 3, FaultPolicy{})
	a := r.export(t, "PS1", 1)
	b := r.export(t, "PS2", 1)
	if _, err := r.mw.Invoke(r.ctx, a, "Add", []any{int64(5)}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mw.Invoke(r.ctx, b, "Add", []any{int64(7)}, false); err != nil {
		t.Fatal(err)
	}

	r.mw.SetCordon(1, true)
	if err := r.mw.Drain(1); err != nil {
		t.Fatalf("drain of a live node: %v", err)
	}
	if n, ok := r.mw.NodeOf(a); !ok || n == 1 {
		t.Fatalf("export a still on node %d (placed=%v) after the drain", n, ok)
	}
	if n, ok := r.mw.NodeOf(b); !ok || n == 1 {
		t.Fatalf("export b still on node %d (placed=%v) after the drain", n, ok)
	}
	if got := r.sum(t, a); got != 5 {
		t.Errorf("a's sum after migration = %d, want 5", got)
	}
	if got := r.sum(t, b); got != 7 {
		t.Errorf("b's sum after migration = %d, want 7", got)
	}
	if _, err := r.mw.Invoke(r.ctx, a, "Add", []any{int64(1)}, false); err != nil {
		t.Fatal(err)
	}
	if got := r.sum(t, a); got != 6 {
		t.Errorf("a's sum after post-drain Add = %d, want 6", got)
	}
	st := r.mw.FaultStats()
	if st.Drains != 1 {
		t.Errorf("Drains = %d, want 1 (stats: %+v)", st.Drains, st)
	}
	// Draining an empty node (nothing placed there) is a no-op success —
	// the path a pool takes when an idle member departs.
	r.mw.SetCordon(2, true)
	if err := r.mw.Drain(2); err != nil {
		t.Fatalf("drain of an empty node: %v", err)
	}
}

// TestPoolTableChurnRace hammers the middleware's membership surface —
// AddNode, SetCordon, Cordoned, eligibleIDs, Nodes, NodeOf — from many
// goroutines while live fault-journaled traffic runs, pinning the
// concurrent-mutation guard under -race.
func TestPoolTableChurnRace(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{})
	obj := r.export(t, "PS1", 0)

	// Four more real daemons the churn goroutine feeds into the table.
	var extra []string
	for i := 0; i < 4; i++ {
		node := rmi.NewNode(exec.Real())
		HostClass(node, defineAcc(NewDomain(), nil, nil))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		extra = append(extra, addr)
	}

	const adds = 200
	var wg sync.WaitGroup
	var stop atomic.Bool
	readerDone := make(chan struct{})
	wg.Add(2)
	go func() { // traffic: the sum oracle at the end proves nothing was lost
		defer wg.Done()
		for i := 0; i < adds; i++ {
			if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(1)}, false); err != nil {
				t.Errorf("Add under churn: %v", err)
				return
			}
		}
	}()
	go func() { // writers: grow the table, flap cordons on the newcomers
		defer wg.Done()
		for round := 0; round < 50; round++ {
			for _, addr := range extra {
				id := r.mw.AddNode(addr)
				r.mw.SetCordon(id, round%2 == 0)
			}
		}
		for _, addr := range extra {
			r.mw.SetCordon(r.mw.AddNode(addr), false)
		}
	}()
	go func() { // readers: snapshot the views the placements consume
		defer close(readerDone)
		for !stop.Load() {
			_ = r.mw.eligibleIDs()
			_ = r.mw.Nodes()
			_ = r.mw.Cordoned(0)
			_, _ = r.mw.NodeOf(obj)
			// Park briefly: on one processor a spinning reader (even one
			// that yields) keeps the run queue busy, so the traffic's
			// network completions wait for the background poller.
			time.Sleep(10 * time.Microsecond)
		}
	}()

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		stop.Store(true)
		t.Fatal("churn goroutines wedged")
	}
	stop.Store(true)
	<-readerDone
	if got := r.sum(t, obj); got != adds {
		t.Fatalf("sum = %d, want %d after concurrent table churn", got, adds)
	}
}

// TestFaultCheckpointTruncation is the bounded-replay regression: with
// CheckpointEvery set, a Snapshot checkpoint truncates the journal history,
// and a crash afterwards reincarnates from Restore(checkpoint) plus the
// short tail — the sum oracle holds across the crash.
func TestFaultCheckpointTruncation(t *testing.T) {
	r := startFaultRig(t, 2, FaultPolicy{CheckpointEvery: 3})
	obj := r.export(t, "PS1", 0)
	var total int64
	for i := int64(1); i <= 7; i++ {
		if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{i}, false); err != nil {
			t.Fatal(err)
		}
		total += i
	}
	// The checkpoint probe rides the object's own dispatch stream and lands
	// asynchronously; wait for at least one to commit.
	deadline := time.Now().Add(10 * time.Second)
	for r.mw.FaultStats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint committed: %+v", r.mw.FaultStats())
		}
		time.Sleep(time.Millisecond)
	}

	// Crash and restart the node: reincarnation must replay the constructor,
	// Restore the checkpoint, then the post-checkpoint tail — not the full
	// history (which the truncation discarded).
	r.restart(0)
	if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(100)}, false); err != nil {
		t.Fatalf("Add across the crash: %v", err)
	}
	total += 100
	if got := r.sum(t, obj); got != total {
		t.Fatalf("sum after checkpointed reincarnation = %d, want %d", got, total)
	}
	st := r.mw.FaultStats()
	if st.Checkpoints < 1 || st.Failovers == 0 {
		t.Errorf("stats after checkpointed recovery: %+v", st)
	}
}

// TestPoolNamespaceIsolation runs two pools (two "drivers") against one
// registry and the same daemons: both export under the same generated name
// and both must see only their own object — the per-driver namespace seam.
func TestPoolNamespaceIsolation(t *testing.T) {
	r := startPoolRig(t)
	r.addNode()

	class := defineAcc(NewDomain(), nil, nil)
	ctx := exec.Real()
	open := func() (*Pool, any) {
		t.Helper()
		pool, err := DialPool(r.regAddr,
			WithPoolPoll(0),
			WithPoolNet(WithNetClock(r.v), WithFaultPolicy(FaultPolicy{Enabled: true})))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pool.Close)
		obj, err := pool.Middleware().ExportNew(ctx, "PS1", 0, class, nil, nil)
		if err != nil {
			t.Fatalf("namespaced export: %v", err)
		}
		return pool, obj
	}
	poolA, objA := open()
	poolB, objB := open() // same name "PS1", different namespace: must not collide

	if _, err := poolA.Middleware().Invoke(ctx, objA, "Add", []any{int64(11)}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := poolB.Middleware().Invoke(ctx, objB, "Add", []any{int64(22)}, false); err != nil {
		t.Fatal(err)
	}
	sumOf := func(p *Pool, obj any) int64 {
		t.Helper()
		res, err := p.Middleware().Invoke(ctx, obj, "Sum", nil, false)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(int64)
	}
	if got := sumOf(poolA, objA); got != 11 {
		t.Fatalf("driver A reads %d, want 11 (cross-driver collision)", got)
	}
	if got := sumOf(poolB, objB); got != 22 {
		t.Fatalf("driver B reads %d, want 22 (cross-driver collision)", got)
	}
	// A scoped Reset must only clear the resetting driver's bindings: B's
	// object keeps serving.
	if err := poolA.Middleware().Reset(); err != nil {
		t.Fatalf("scoped reset: %v", err)
	}
	if got := sumOf(poolB, objB); got != 22 {
		t.Fatalf("driver B reads %d after A's reset, want 22", got)
	}
}

// TestPoolOperatorCordonAndDrain drives the operator overrides poolctl
// exposes. Cordon fires the OnCordon hook and takes the member out of
// placements at once; Drain migrates its exports now, whatever the grace,
// with their state intact; uncordoning fires the hook again and makes the
// member eligible for new placements.
func TestPoolOperatorCordonAndDrain(t *testing.T) {
	r := startPoolRig(t)
	r.addNode()
	addrB := r.addNode()
	pool, err := DialPool(r.regAddr,
		WithPoolPoll(0), WithDrainGrace(time.Hour),
		WithPoolNet(WithNetClock(r.v), WithFaultPolicy(FaultPolicy{Enabled: true})))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	m := pool.Middleware()
	b, ok := memberByAddr(pool.Members(), addrB)
	if !ok {
		t.Fatalf("member %s missing from %+v", addrB, pool.Members())
	}

	type flip struct {
		node exec.NodeID
		addr string
		on   bool
	}
	var flips []flip
	pool.OnCordon(func(node exec.NodeID, addr string, on bool) { flips = append(flips, flip{node, addr, on}) })

	ctx := exec.Real()
	obj, err := m.ExportNew(ctx, "PS1", b.Node, defineAcc(NewDomain(), nil, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Invoke(ctx, obj, "Add", []any{int64(5)}, false); err != nil {
		t.Fatal(err)
	}
	eligible := func(node exec.NodeID) bool {
		for _, id := range m.eligibleIDs() {
			if id == node {
				return true
			}
		}
		return false
	}

	pool.Cordon(b.Node, true)
	if len(flips) != 1 || flips[0] != (flip{b.Node, addrB, true}) {
		t.Fatalf("OnCordon saw %+v, want one cordon of %s", flips, addrB)
	}
	if mb, _ := memberByAddr(pool.Members(), addrB); !mb.Cordoned || mb.Drained {
		t.Fatalf("after Cordon: %+v, want cordoned and not drained (grace pending)", mb)
	}
	if eligible(b.Node) {
		t.Fatal("cordoned node still eligible for placements")
	}

	if err := pool.Drain(b.Node); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if mb, _ := memberByAddr(pool.Members(), addrB); !mb.Drained {
		t.Fatalf("after Drain: %+v, want drained", mb)
	}
	if n, ok := m.NodeOf(obj); !ok || n == b.Node {
		t.Fatalf("export still on node %d (placed=%v) after the drain", n, ok)
	}
	res, err := m.Invoke(ctx, obj, "Sum", nil, false)
	if err != nil || res[0].(int64) != 5 {
		t.Fatalf("sum after migration = %v, %v; want 5", res, err)
	}

	pool.Cordon(b.Node, false)
	if len(flips) != 2 || flips[1] != (flip{b.Node, addrB, false}) {
		t.Fatalf("OnCordon saw %+v, want the uncordon of %s last", flips, addrB)
	}
	if mb, _ := memberByAddr(pool.Members(), addrB); mb.Cordoned || mb.Drained {
		t.Fatalf("after uncordon: %+v, want neither cordoned nor drained", mb)
	}
	if !eligible(b.Node) {
		t.Fatal("uncordoned node not eligible for placements")
	}
}

// TestPoolWatcherReconciles runs the background watcher on the rig's
// virtual clock: each poll interval it reconciles against the registry, so
// a joining daemon fires OnJoin without a manual Refresh; once the registry
// is gone, the failed passes accumulate for Err instead of stopping the
// loop; Close stops it.
func TestPoolWatcherReconciles(t *testing.T) {
	r := startPoolRig(t)
	r.addNode()
	const poll = 50 * time.Millisecond
	pool, err := DialPool(r.regAddr, WithPoolPoll(poll), WithPoolNet(WithNetClock(r.v)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	joined := make(chan string, 1)
	pool.OnJoin(func(node exec.NodeID, addr string) { joined <- addr })

	// advanceUntil steps virtual time one poll at a time until done holds.
	advanceUntil := func(what string, done func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("watcher never %s", what)
			}
			r.v.Advance(poll)
			time.Sleep(time.Millisecond)
		}
	}

	addrB := r.addNode()
	var got string
	advanceUntil("saw the join", func() bool {
		select {
		case got = <-joined:
			return true
		default:
			return false
		}
	})
	if got != addrB {
		t.Fatalf("OnJoin saw %s, want %s", got, addrB)
	}
	if n := pool.Middleware().Nodes(); n != 2 {
		t.Fatalf("table has %d nodes after the join, want 2", n)
	}
	if err := pool.Err(); err != nil {
		t.Fatalf("healthy watcher recorded %v", err)
	}

	r.regSrv.Close()
	advanceUntil("recorded the lost registry", func() bool { return pool.Err() != nil })
	pool.Close()
}
