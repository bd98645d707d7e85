package par

import (
	"sync/atomic"
	"testing"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/cluster"
	"aspectpar/internal/exec"
	"aspectpar/internal/sim"
)

// runStealFarm executes one stealing-farm round over the given pieces on the
// virtual-time backend and returns the farm (for stats/managed inspection)
// and the elapsed virtual time.
func runStealFarm(t *testing.T, workers int, split func([]any) [][]any, steal StealConfig,
	data []int32, contexts int) (*Farm, time.Duration) {
	t.Helper()
	dom, class := defineBox(t)
	meter := NewMetering(aspect.Call("Box", "Work"), 1e6, 0) // 1ms per element
	farm := NewFarm(FarmConfig{
		Class: class, Method: "Work", Workers: workers,
		Split: split, Stealing: true, Steal: steal,
	})
	stack := NewStack(dom, farm, meter)
	cl := cluster.New(sim.NewEngine(), cluster.Config{Machines: 1, ContextsPerMachine: contexts})
	err := cl.Run(func(ctx exec.Context) {
		obj, err := class.New(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := class.Call(ctx, obj, "Work", data); err != nil {
			t.Error(err)
		}
		if err := stack.Join(ctx); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return farm, cl.Elapsed()
}

func TestStealingFarmBalancesSkewedPacks(t *testing.T) {
	// Same skewed workload as TestDynamicFarmBalancesSkewedWorkPieces: pieces
	// of 9,1,9,1,9,1 ms dealt round-robin give the static farm a 27ms
	// critical path (all three 9s on one worker). Stealing moves queued 9ms
	// packs to the idle worker: w1 drains its 1ms packs by t=3, steals one 9
	// (3..12), w0 runs its remaining 9s (0..9, 9..18) — makespan ≈ 18ms.
	costs := []int32{9, 1, 9, 1, 9, 1}
	split := func(args []any) [][]any {
		var parts [][]any
		for _, c := range args[0].([]int32) {
			parts = append(parts, []any{make([]int32, c)})
		}
		return parts
	}
	farm, elapsed := runStealFarm(t, 2, split, StealConfig{}, costs, 4)

	if elapsed >= 27*time.Millisecond {
		t.Errorf("stealing farm = %v, want < 27ms (static critical path)", elapsed)
	}
	if elapsed >= 19*time.Millisecond {
		t.Errorf("stealing farm = %v, want < 19ms (dynamic farm's makespan)", elapsed)
	}
	st := farm.StealStats()
	if st.Steals == 0 || st.Stolen == 0 {
		t.Errorf("no steals recorded: %+v", st)
	}
	if st.Seeded != 6 {
		t.Errorf("seeded = %d, want 6", st.Seeded)
	}
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: executed=%d seeded=%d splits=%d", st.Executed, st.Seeded, st.Splits)
	}
}

func TestStealingFarmSplitsHotPack(t *testing.T) {
	// One giant pack on worker 0 and nothing else: the only way worker 1
	// ever works is a steal-request split of the hot pack. MinSplit 100
	// allows halving the 1000-element pack repeatedly.
	data := make([]int32, 1000)
	wholePack := func(args []any) [][]any { return [][]any{{args[0].([]int32)}} }
	farm, elapsed := runStealFarm(t, 2, wholePack, StealConfig{MinSplit: 100}, data, 4)

	st := farm.StealStats()
	if st.Splits == 0 {
		t.Fatalf("hot pack was never split: %+v", st)
	}
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: %+v", st)
	}
	// 1000ms of metered work; two workers after the first split: the
	// makespan must be well under the sequential 1000ms.
	if elapsed >= 900*time.Millisecond {
		t.Errorf("elapsed = %v; splitting did not parallelise the hot pack", elapsed)
	}
	// Completeness: both replicas together saw all 1000 elements.
	total := 0
	for _, w := range farm.Managed() {
		total += len(w.(*box).items)
	}
	if total != 1000 {
		t.Errorf("workers saw %d elements, want 1000", total)
	}
}

func TestStealingFarmSingleWorkerDegeneratesToSerial(t *testing.T) {
	data := []int32{1, 2, 3, 4, 5}
	farm, _ := runStealFarm(t, 1, splitBy(2), StealConfig{}, data, 4)
	st := farm.StealStats()
	if st.Steals != 0 || st.Splits != 0 {
		t.Errorf("single worker should have nothing to steal: %+v", st)
	}
	if got := farm.Managed()[0].(*box).sum(); got != 15 {
		t.Errorf("sum = %d, want 15", got)
	}
}

func TestStealingFarmDeterministicUnderVirtualTime(t *testing.T) {
	// The same configuration must give bit-identical virtual schedules on
	// every run: round-robin victim selection, FIFO event ordering and
	// seedless backoff leave no nondeterminism.
	data := make([]int32, 501)
	for i := range data {
		data[i] = int32(i % 13)
	}
	run := func() (time.Duration, StealStats) {
		farm, elapsed := runStealFarm(t, 3, splitBy(7), StealConfig{MinSplit: 2}, data, 4)
		return elapsed, farm.StealStats()
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 {
		t.Errorf("elapsed differs across identical runs: %v vs %v", e1, e2)
	}
	if s1 != s2 {
		t.Errorf("steal stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
}

// TestRealBackendStealStress hammers concurrent steals on the real-goroutine
// backend: many more packs than workers, tiny packs so deques run dry
// constantly, split thresholds low so hot packs split under contention. Run
// with -race this is the scheduler's data-race gauntlet.
func TestRealBackendStealStress(t *testing.T) {
	const (
		workers  = 8
		elements = 20_000
	)
	dom, class := defineBox(t)
	farm := NewFarm(FarmConfig{
		Class: class, Method: "Work", Workers: workers,
		Split:    splitBy(64),
		Stealing: true,
		Steal:    StealConfig{MinSplit: 4, MaxBackoff: 10 * time.Microsecond},
	})
	stack := NewStack(dom, farm)
	ctx := exec.Real()

	data := make([]int32, elements)
	var want int64
	for i := range data {
		data[i] = int32(i%100 + 1)
		want += int64(data[i])
	}
	obj, err := class.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Several dispatch rounds back to back, so scheduler state from one
	// round cannot leak into the next.
	const rounds = 3
	for r := 0; r < rounds; r++ {
		if _, err := class.Call(ctx, obj, "Work", data); err != nil {
			t.Fatal(err)
		}
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, w := range farm.Managed() {
		got += w.(*box).sum()
	}
	if got != want*rounds {
		t.Errorf("total = %d, want %d (packs lost or duplicated under concurrent stealing)", got, want*rounds)
	}
	st := farm.StealStats()
	if st.Executed != st.Seeded+st.Splits {
		t.Errorf("pack accounting broken: %+v", st)
	}
	if !farm.Quiet() {
		t.Error("farm not quiet after Join")
	}
}

// TestStealSchedulerWorkerSetAndOrphans pins the scheduler's elastic and
// fault hooks directly: addWorker widens the worker set copy-on-write (and
// extends the placement table only when one is installed), requeueOrphan
// hands a lost replica's pack to the next worker's deque without touching
// the termination counter, and noteDeadWorker aborts the round only when
// the last worker dies with packs outstanding.
func TestStealSchedulerWorkerSetAndOrphans(t *testing.T) {
	s := newStealScheduler(StealConfig{}, 2)
	before := s.workers()
	if i := s.addWorker(5); i != 2 {
		t.Fatalf("addWorker index = %d, want 2", i)
	}
	ws := s.workers()
	if len(ws.deques) != 3 || ws.nodes != nil {
		t.Fatalf("after addWorker without placements: %d deques, nodes %v", len(ws.deques), ws.nodes)
	}
	if len(before.deques) != 2 || before.deques[1] != ws.deques[1] {
		t.Fatal("addWorker mutated the old snapshot or replaced a live deque")
	}
	s.setNodes([]exec.NodeID{0, 1, 5})
	if i := s.addWorker(7); i != 3 {
		t.Fatalf("addWorker index = %d, want 3", i)
	}
	if got := s.workers().nodes; len(got) != 4 || got[2] != 5 || got[3] != 7 {
		t.Fatalf("placements after addWorker = %v, want [0 1 5 7]", got)
	}

	// One pack outstanding, lost on the last worker's replica: it wraps
	// round to worker 0, which takes it like any local pack.
	s.remaining.Add(1)
	s.requeueOrphan(3, []any{payload(1, 2, 3)})
	if s.remaining.Load() != 1 {
		t.Fatalf("requeueOrphan changed remaining to %d", s.remaining.Load())
	}
	pk, ok := s.take(0)
	if !ok || len(pk.args) != 1 {
		t.Fatalf("worker 0 did not receive the orphan: %+v, %v", pk, ok)
	}

	for i := 0; i < 3; i++ {
		if s.noteDeadWorker() {
			t.Fatalf("death %d of 4 aborted the round", i+1)
		}
	}
	if s.drained() {
		t.Fatal("round drained with a pack outstanding and a live worker")
	}
	if !s.noteDeadWorker() || !s.drained() {
		t.Fatal("the last worker's death with a pack outstanding must abort the round")
	}

	// Every worker dead but nothing outstanding: a clean finish, no abort.
	idle := newStealScheduler(StealConfig{}, 1)
	if idle.noteDeadWorker() || idle.aborted.Load() {
		t.Fatal("a dead worker with no packs outstanding aborted the round")
	}
}

// TestFarmGrow widens a stealing farm on the real backend. Grow refuses a
// non-stealing farm and one whose object does not exist yet. Mid-round,
// while the only original worker is held inside its first pack, the grown
// replica joins the same round and steals the queued packs; between rounds
// a grown replica waits for the next dispatch. No pack is lost or run twice.
func TestFarmGrow(t *testing.T) {
	_, plain := defineBox(t)
	if _, err := NewFarm(FarmConfig{Class: plain, Method: "Work", Workers: 2}).Grow(exec.Real(), 0); err == nil {
		t.Error("Grow on a non-stealing farm should fail")
	}

	started, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	dom := NewDomain()
	class := dom.Define("Gate",
		func(args []any) (any, error) { return &box{}, nil },
		map[string]MethodBody{
			"Work": func(target any, args []any) ([]any, error) {
				if held.CompareAndSwap(false, true) {
					close(started)
					<-release
				}
				target.(*box).work(args[0].([]int32))
				return nil, nil
			},
		})
	farm := NewFarm(FarmConfig{
		Class: class, Method: "Work", Workers: 1,
		Split: splitBy(1), Stealing: true, Window: 1,
	})
	stack := NewStack(dom, farm)
	ctx := exec.Real()
	if _, err := farm.Grow(ctx, 0); err == nil {
		t.Error("Grow before the farm object exists should fail")
	}

	data := payload(1, 2, 3, 4, 5, 6, 7, 8)
	obj, err := class.New(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class.Call(ctx, obj, "Work", data); err != nil {
		t.Fatal(err)
	}
	<-started
	grown, err := farm.Grow(ctx, 1)
	if err != nil {
		t.Fatalf("Grow mid-round: %v", err)
	}
	// The grown worker must absorb queued packs while worker 0 is held.
	deadline := time.Now().Add(10 * time.Second)
	for grown.(*box).sum() == 0 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the grown replica never stole a pack from the running round")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}

	// Between rounds the replica joins the managed set; the next dispatch
	// deals it a deque.
	if _, err := farm.Grow(ctx, 2); err != nil {
		t.Fatalf("Grow between rounds: %v", err)
	}
	if _, err := class.Call(ctx, obj, "Work", data); err != nil {
		t.Fatal(err)
	}
	if err := stack.Join(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(farm.Managed()); n != 3 {
		t.Fatalf("farm has %d replicas, want 3", n)
	}
	var got int64
	for _, w := range farm.Managed() {
		got += w.(*box).sum()
	}
	if want := int64(2 * 36); got != want {
		t.Errorf("total = %d, want %d (packs lost or duplicated across Grow)", got, want)
	}
	if st := farm.StealStats(); st.Executed != st.Seeded+st.Splits || st.Steals == 0 {
		t.Errorf("steal accounting: %+v", st)
	}
}
