package main

import (
	"fmt"
	"math/rand"
	"time"

	"aspectpar/internal/apps/imagepipe"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
	"aspectpar/internal/sieve"
)

// workload is one closed loop the benchmark drives from a single generator
// goroutine.
type workload struct {
	name     string
	unit     string  // what one op is, for the report's metric names
	tail     float64 // the percentile reported as op_tail_ms
	quickOps int64   // ops per window in quick mode
	start    func(cfg config) (instance, error)
}

// instance is one deployed, warmed-up workload.
type instance interface {
	// measure drives the closed loop until the deadline, or until maxOps
	// ops were attempted when maxOps > 0, and drains what is in flight.
	measure(until time.Time, maxOps int64, tr *tracer) (window, error)
	close()
}

// window is what one measured window observed. Every count in layer is a
// delta between snapshots taken around the window, divided by ops.
type window struct {
	start     time.Time
	ops       int64 // ops that completed with a correct output
	attempted int64
	failed    int64
	lat       []time.Duration // one per completed op
	at        []time.Duration // when each op completed, since start
	elapsed   time.Duration
	layer     map[string]float64
	problems  []string     // failed output checks and broken invariants
	host      []hostSample // the machine's CPU ticks, sampled through the window
}

// stealShare is the share of the machine's vCPU time the hypervisor gave
// to other guests between two offsets into the window, read from the
// samples that bracket them.
func (w *window) stealShare(from, to time.Duration) float64 {
	if len(w.host) == 0 {
		return 0
	}
	a, b := w.host[0], w.host[len(w.host)-1]
	for _, h := range w.host {
		at := h.at.Sub(w.start)
		if at <= from {
			a = h
		}
		if at >= to {
			b = h
			break
		}
	}
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

func newWindow() window {
	return window{start: time.Now(), layer: make(map[string]float64)}
}

// sample records one op that completed correctly at done after lat.
func (w *window) sample(done time.Time, lat time.Duration) {
	w.ops++
	w.lat = append(w.lat, lat)
	w.at = append(w.at, done.Sub(w.start))
}

func (w *window) correct() bool { return w.failed == 0 && len(w.problems) == 0 }

func (w *window) problem(format string, args ...any) {
	if len(w.problems) < 16 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// The workloads, in BENCHMARK.json's order, where the reason for each is
// recorded. The compute-bound two take a tail of p90: at 10-15 ops per
// second a window holds a few hundred ops, which leaves 10 or more samples
// beyond p90 but not beyond p99. rpc-echo takes p90 too: its p99 is set by
// the few calls a descheduled vCPU holds up, so it moves with the host's
// load from run to run far more than the program's.
var workloads = []workload{
	{name: "sieve-farm", unit: "job", tail: 90, quickOps: 3, start: startFarm},
	{name: "rpc-echo", unit: "call", tail: 90, quickOps: 2000, start: startEcho},
	{name: "image-stream", unit: "frame", tail: 99, quickOps: 256, start: startStream},
	{name: "paper-sim", unit: "sim_run", tail: 90, quickOps: 3, start: startSim},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// keepGoing is the closed loop's admission test: a fixed op count in quick
// mode and warm-up, the deadline otherwise.
func keepGoing(attempted, maxOps int64, until time.Time) bool {
	if maxOps > 0 {
		return attempted < maxOps
	}
	return time.Now().Before(until)
}

// startNodes launches count loopback rmi.Node daemons hosting the class
// that define builds on a fresh domain, as a worker process would.
func startNodes(count int, define func(*par.Domain) *par.Class) ([]*rmi.Node, []string, error) {
	var nodes []*rmi.Node
	var addrs []string
	for i := 0; i < count; i++ {
		node := rmi.NewNode(exec.Real())
		par.HostClass(node, define(par.NewDomain()))
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			closeNodes(nodes)
			return nil, nil, fmt.Errorf("loopback node %d: %w", i, err)
		}
		nodes = append(nodes, node)
		addrs = append(addrs, addr)
	}
	return nodes, addrs, nil
}

func closeNodes(nodes []*rmi.Node) {
	for _, n := range nodes {
		n.Close()
	}
}

func requests(nodes []*rmi.Node) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = n.Requests()
	}
	return out
}

// nodeLayer reports each daemon's requests per op over the window and the
// skew between daemons, (max - min) / mean.
func nodeLayer(layer map[string]float64, before, after []int64, ops float64) {
	lo, hi, sum := 0.0, 0.0, 0.0
	for i := range before {
		per := float64(after[i]-before[i]) / ops
		layer[fmt.Sprintf("node.n%d.requests_per_op", i)] = per
		if i == 0 || per < lo {
			lo = per
		}
		if per > hi {
			hi = per
		}
		sum += per
	}
	if len(before) > 1 && sum > 0 {
		layer["node.request_skew"] = (hi - lo) / (sum / float64(len(before)))
	}
}

// ---------------------------------------------------------------------------
// sieve-farm: sieve.RunCombo of stealing-farm/merged/net against two
// resident daemons.

var farmCombo = sieve.Combo{
	Partition:    sieve.PartStealingFarm,
	Concurrency:  sieve.ConcMerged,
	Distribution: sieve.DistNet,
}

type farmRig struct {
	nodes  []*rmi.Node
	params sieve.Params
	count  int
	sum    uint64
}

func startFarm(cfg config) (instance, error) {
	nodes, addrs, err := startNodes(2, sieve.DefineClass)
	if err != nil {
		return nil, err
	}
	r := &farmRig{
		nodes: nodes,
		params: sieve.Params{
			Max: 1_000_000, Packs: 100, Filters: 4, Skew: 8,
			NetAddrs: addrs, NetCodec: "binary", NetStreams: 2,
			Faults: par.FaultPolicy{Enabled: true},
		},
	}
	// The sieve fixes the inputs; the seed only names the run.
	r.count, r.sum = sieve.Checksum(sieve.Reference(r.params.Max))
	warm, err := r.measure(time.Time{}, 1, nil)
	if err == nil && !warm.correct() {
		err = fmt.Errorf("warm-up job: %v", warm.problems)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *farmRig) measure(until time.Time, maxOps int64, tr *tracer) (window, error) {
	win := newWindow()
	reqBefore := requests(r.nodes)
	var comm par.CommStats
	var steals par.StealStats
	var faults par.FaultStats
	var overhead time.Duration
	for keepGoing(win.attempted, maxOps, until) {
		t0 := time.Now()
		res, err := sieve.RunCombo(farmCombo, r.params)
		t1 := time.Now()
		win.attempted++
		tr.record(tr.newID(), "sieve.RunCombo", t0, t1, 0, win.attempted, 0)
		st := res.Steals
		switch {
		case err != nil:
			win.problem("job %d: %v", win.attempted, err)
			continue
		case res.PrimeCount != r.count || res.PrimeSum != r.sum:
			win.problem("job %d: checksum (%d, %d), want (%d, %d)", win.attempted, res.PrimeCount, res.PrimeSum, r.count, r.sum)
			continue
		case st.Executed != st.Seeded+st.Splits:
			win.problem("job %d: executed %d packs, seeded %d + splits %d", win.attempted, st.Executed, st.Seeded, st.Splits)
			continue
		}
		win.sample(t1, t1.Sub(t0))
		overhead += t1.Sub(t0) - res.Elapsed
		comm.Messages += res.Comm.Messages
		comm.Bytes += res.Comm.Bytes
		steals.Steals += st.Steals
		steals.Stolen += st.Stolen
		steals.Splits += st.Splits
		steals.FailedScans += st.FailedScans
		faults.Reconnects += res.Faults.Reconnects
		faults.Replays += res.Faults.Replays
		faults.Failovers += res.Faults.Failovers
	}
	win.elapsed = time.Since(win.start)
	win.failed = win.attempted - win.ops
	ops := float64(max(win.ops, 1))
	win.layer["rmi.msgs_per_op"] = float64(comm.Messages) / ops
	win.layer["rmi.bytes_per_op"] = float64(comm.Bytes) / ops
	schedLayer(win.layer, steals, ops)
	faultLayer(win.layer, faults, ops)
	win.layer["farm.job_overhead_ms"] = ms(overhead) / ops
	nodeLayer(win.layer, reqBefore, requests(r.nodes), ops)
	return win, nil
}

func (r *farmRig) close() { closeNodes(r.nodes) }

func schedLayer(layer map[string]float64, st par.StealStats, ops float64) {
	layer["sched.steals_per_job"] = float64(st.Steals) / ops
	layer["sched.stolen_per_job"] = float64(st.Stolen) / ops
	layer["sched.splits_per_job"] = float64(st.Splits) / ops
	layer["sched.failed_scans_per_job"] = float64(st.FailedScans) / ops
}

func faultLayer(layer map[string]float64, f par.FaultStats, ops float64) {
	layer["fault.reconnects"] = float64(f.Reconnects) / ops
	layer["fault.replays"] = float64(f.Replays) / ops
	layer["fault.failovers"] = float64(f.Failovers) / ops
}

// ---------------------------------------------------------------------------
// rpc-echo: windowed NetRMI round trips of a 16-element []int32.

const (
	echoWindow  = 64
	echoPayload = 16
	// echoSlots is twice the window: a slot is reused only once the call
	// that last used it has completed and been checked.
	echoSlots = 2 * echoWindow
)

// echoClass defines the echo servant: Echo returns its argument list.
func echoClass() *par.Class {
	return par.NewDomain().Define("Echo",
		func(args []any) (any, error) { return &struct{}{}, nil },
		map[string]par.MethodBody{
			"Echo": func(target any, args []any) ([]any, error) { return args, nil },
		}).Wire([]int32(nil))
}

type echoSlot struct {
	payload []int32 // payload[0] carries the op id
	id      int64
	live    bool
	issued  time.Time
	span    int64
	covered time.Duration // time the call's child spans cover
}

type echoRig struct {
	node  *rmi.Node
	mw    *par.NetRMI
	objs  []any
	done  exec.Chan
	next  int64
	slots [echoSlots]echoSlot
}

func startEcho(cfg config) (instance, error) {
	ctx := exec.Real()
	nodes, addrs, err := startNodes(1, func(*par.Domain) *par.Class { return echoClass() })
	if err != nil {
		return nil, err
	}
	r := &echoRig{node: nodes[0], done: ctx.NewChan(echoWindow)}
	r.mw, err = par.DialNet(par.NetAddressTable(addrs...), par.WithCodec(rmi.BinaryCodec()), par.WithStreams(2))
	if err != nil {
		r.close()
		return nil, err
	}
	class := echoClass()
	for i := 0; i < 2; i++ {
		obj, err := r.mw.ExportNew(ctx, fmt.Sprintf("echo%d", i), 0, class, nil, nil)
		if err != nil {
			r.close()
			return nil, err
		}
		r.objs = append(r.objs, obj)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := range r.slots {
		r.slots[i].payload = make([]int32, echoPayload)
		for j := range r.slots[i].payload {
			r.slots[i].payload[j] = rng.Int31()
		}
	}
	warmOps := int64(20_000)
	if cfg.quick {
		warmOps = 500
	}
	warm, err := r.measure(time.Time{}, warmOps, nil)
	if err == nil && !warm.correct() {
		err = fmt.Errorf("warm-up calls: %v", warm.problems)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *echoRig) measure(until time.Time, maxOps int64, tr *tracer) (window, error) {
	ctx := exec.Real()
	win := newWindow()
	statsBefore, faultsBefore, reqBefore := r.mw.Stats(), r.mw.FaultStats(), r.node.Requests()
	inflight := 0
	for {
		for inflight < echoWindow && keepGoing(win.attempted, maxOps, until) {
			id := r.next
			r.next++
			s := &r.slots[id%echoSlots]
			s.payload[0] = int32(id)
			s.id, s.live = id, true
			s.issued = time.Now()
			s.span = tr.newID()
			r.mw.InvokeAsync(ctx, r.objs[id%2], "Echo", []any{s.payload}, false, r.done)
			if tr != nil {
				end := time.Now()
				tr.record(tr.newID(), "netrmi.issue", s.issued, end, s.span, id, 0)
				s.covered = end.Sub(s.issued)
			}
			win.attempted++
			inflight++
		}
		if inflight == 0 {
			break
		}
		var waitStart time.Time
		if tr != nil {
			waitStart = time.Now()
		}
		v, ok := r.done.Recv(ctx)
		now := time.Now()
		if !ok {
			return win, fmt.Errorf("rpc-echo: completion channel closed")
		}
		inflight--
		res, err := v.(*par.Completion).Reclaim(ctx)
		s, bad := r.reply(res, err)
		if bad != "" {
			win.problem("%s", bad)
			continue
		}
		s.live = false
		win.sample(now, now.Sub(s.issued))
		if tr != nil {
			tr.record(tr.newID(), "netrmi.wait", waitStart, now, s.span, s.id, 0)
			tr.record(s.span, "rpc.call", s.issued, now, 0, s.id, s.covered+now.Sub(waitStart))
		}
	}
	win.elapsed = time.Since(win.start)
	win.failed = win.attempted - win.ops
	ops := float64(max(win.ops, 1))
	stats, faults := r.mw.Stats(), r.mw.FaultStats()
	win.layer["rmi.msgs_per_op"] = float64(stats.Messages-statsBefore.Messages) / ops
	win.layer["rmi.bytes_per_op"] = float64(stats.Bytes-statsBefore.Bytes) / ops
	faultLayer(win.layer, par.FaultStats{
		Reconnects: faults.Reconnects - faultsBefore.Reconnects,
		Replays:    faults.Replays - faultsBefore.Replays,
		Failovers:  faults.Failovers - faultsBefore.Failovers,
	}, ops)
	nodeLayer(win.layer, []int64{reqBefore}, []int64{r.node.Requests()}, ops)
	return win, nil
}

// reply checks one completion against the payload its op id names and
// returns that op's slot, or a description of what was wrong.
func (r *echoRig) reply(res []any, err error) (*echoSlot, string) {
	if err != nil {
		return nil, fmt.Sprintf("call failed: %v", err)
	}
	if len(res) != 1 {
		return nil, fmt.Sprintf("reply has %d values, want 1", len(res))
	}
	got, ok := res[0].([]int32)
	if !ok || len(got) != echoPayload {
		return nil, fmt.Sprintf("reply is %T of length %d", res[0], len(got))
	}
	id := int64(got[0])
	s := &r.slots[id%echoSlots]
	if !s.live || s.id != id {
		return nil, fmt.Sprintf("reply for op %d, which is not in flight (duplicate or corrupt)", id)
	}
	for i, v := range got {
		if v != s.payload[i] {
			return nil, fmt.Sprintf("reply for op %d differs from its payload at %d", id, i)
		}
	}
	return s, ""
}

func (r *echoRig) close() {
	if r.mw != nil {
		r.mw.Close()
	}
	r.node.Close()
}

// ---------------------------------------------------------------------------
// image-stream: frames through a resident imagepipe.Service.

const (
	streamWindow   = 64
	streamWave     = 16
	streamFrameLen = 256
	streamPool     = 256 // distinct seeded frames, cycled
	// streamSlots tracks frames by id; at most streamWindow are outstanding.
	streamSlots = 1024
)

type frameSlot struct {
	id        int64
	pool      int // index of the input frame
	live      bool
	submitted time.Time
}

type streamRig struct {
	nodes  []*rmi.Node
	ctls   []*rmi.Stub // control stubs for the node-side forward-lane counters
	svc    *imagepipe.Service
	pool   []imagepipe.Frame
	want   []imagepipe.Frame // imagepipe.Sequential of pool
	next   int               // next pool index
	slots  [streamSlots]frameSlot
	open   int           // submitted but not yet taken
	ingest time.Duration // cost of a Submit that does not wait on the window
}

func startStream(cfg config) (instance, error) {
	nodes, addrs, err := startNodes(2, imagepipe.DefineClass)
	if err != nil {
		return nil, err
	}
	r := &streamRig{nodes: nodes}
	for _, addr := range addrs {
		client, err := rmi.Dial(addr)
		if err != nil {
			r.close()
			return nil, err
		}
		ctl, err := client.Lookup(rmi.ControlName)
		if err != nil {
			client.Close()
			r.close()
			return nil, err
		}
		r.ctls = append(r.ctls, ctl)
	}
	r.svc, err = imagepipe.StartService(imagepipe.ServiceConfig{
		Addrs:  addrs,
		Window: streamWindow,
		Net:    []par.NetOption{par.WithCodec(rmi.BinaryCodec())},
	})
	if err != nil {
		r.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	r.pool = make([]imagepipe.Frame, streamPool)
	for i := range r.pool {
		f := make(imagepipe.Frame, streamFrameLen)
		for j := range f {
			f[j] = rng.Float64()
		}
		r.pool[i] = f
	}
	r.want = imagepipe.Sequential(r.pool)

	warmOps := int64(1024)
	if cfg.quick {
		warmOps = 64
	}
	warm, err := r.measure(time.Time{}, warmOps, nil)
	if err == nil && !warm.correct() {
		err = fmt.Errorf("warm-up frames: %v", warm.problems)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	// Calibrate the cost of a Submit that has room in the window, so the
	// measured windows can split a blocking Submit into wait and ingest.
	var costs []float64
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		ids, err := r.svc.Submit(r.wave())
		costs = append(costs, float64(time.Since(t0)))
		if err == nil {
			err = r.svc.Flush()
		}
		if err != nil {
			r.close()
			return nil, err
		}
		r.track(ids, t0)
		var cal window
		r.collect(r.svc.Take(), time.Now(), &cal, nil)
		if !cal.correct() {
			r.close()
			return nil, fmt.Errorf("calibration frames: %v", cal.problems)
		}
	}
	r.ingest = time.Duration(median(costs))
	return r, nil
}

// wave returns the next streamWave seeded frames, cycling the pool.
func (r *streamRig) wave() []imagepipe.Frame {
	out := make([]imagepipe.Frame, streamWave)
	for i := range out {
		out[i] = r.pool[(r.next+i)%streamPool]
	}
	return out
}

// track records the ids Submit assigned to the frames of the last wave.
func (r *streamRig) track(ids []int64, submitted time.Time) {
	for i, id := range ids {
		r.slots[id%streamSlots] = frameSlot{id: id, pool: (r.next + i) % streamPool, live: true, submitted: submitted}
	}
	r.next = (r.next + len(ids)) % streamPool
	r.open += len(ids)
}

// collect checks the frames one Take returned against the sequential chain
// and records their latency, from the start of their Submit to now.
func (r *streamRig) collect(got map[int64]imagepipe.Frame, now time.Time, win *window, dups *int64) {
	for id, f := range got {
		s := &r.slots[id%streamSlots]
		if !s.live || s.id != id {
			win.problem("frame %d delivered but not outstanding (duplicate or unknown)", id)
			if dups != nil {
				*dups++
			}
			continue
		}
		s.live = false
		r.open--
		if !framesEqual(f, r.want[s.pool]) {
			win.problem("frame %d differs from imagepipe.Sequential", id)
			continue
		}
		win.sample(now, now.Sub(s.submitted))
	}
}

func framesEqual(a, b imagepipe.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// initiated sums the forward hops the daemons themselves derived, polled
// from each node's control object without draining its strands.
func (r *streamRig) initiated() (int64, error) {
	var total int64
	for i, ctl := range r.ctls {
		res, err := ctl.Invoke(rmi.CtlPipePoll, "", false)
		if err != nil {
			return 0, fmt.Errorf("pipe poll node %d: %w", i, err)
		}
		st, ok := res[0].(rmi.PipeStatus)
		if !ok {
			return 0, fmt.Errorf("pipe poll node %d returned %T", i, res[0])
		}
		total += st.Initiated
	}
	return total, nil
}

func (r *streamRig) measure(until time.Time, maxOps int64, tr *tracer) (window, error) {
	win := newWindow()
	hopsBefore, err := r.initiated()
	if err != nil {
		return win, err
	}
	reqBefore, svcBefore := requests(r.nodes), r.svc.Stats()
	var blocked time.Duration
	var waves, dups int64
	for keepGoing(win.attempted, maxOps, until) {
		frames := r.wave()
		mayWait := r.open+len(frames) > streamWindow
		t0 := time.Now()
		ids, err := r.svc.Submit(frames)
		t1 := time.Now()
		if err != nil {
			win.attempted += int64(len(frames))
			win.problem("submit: %v", err)
			break
		}
		r.track(ids, t0)
		win.attempted += int64(len(ids))
		waves++
		if mayWait && t1.Sub(t0) > r.ingest {
			blocked += t1.Sub(t0) - r.ingest
		}
		got := r.svc.Take()
		t2 := time.Now()
		r.collect(got, t2, &win, &dups)
		if tr != nil {
			wave := tr.newID()
			tr.record(tr.newID(), "service.submit", t0, t1, wave, ids[0], 0)
			tr.record(tr.newID(), "service.take", t1, t2, wave, ids[0], 0)
			tr.record(wave, "stream.wave", t0, t2, 0, ids[0], t2.Sub(t0))
		}
	}
	t0 := time.Now()
	err = r.svc.Flush()
	t1 := time.Now()
	if err != nil {
		win.problem("flush: %v", err)
	}
	r.collect(r.svc.Take(), time.Now(), &win, &dups)
	tr.record(tr.newID(), "service.flush", t0, t1, 0, 0, 0)
	win.elapsed = time.Since(win.start)
	win.failed = win.attempted - win.ops + dups

	// Requests first: the pipe poll below is itself a request.
	reqAfter, svcAfter := requests(r.nodes), r.svc.Stats()
	hopsAfter, err := r.initiated()
	if err != nil {
		return win, err
	}
	ops := float64(max(win.ops, 1))
	hops := hopsAfter - hopsBefore
	if hops != 2*win.attempted {
		win.problem("%d peer hops for %d frames, want exactly 2 per frame", hops, win.attempted)
	}
	if d := svcAfter.Duplicates - svcBefore.Duplicates; d != 0 {
		win.problem("service counted %d duplicate deliveries", d)
	}
	// The service's topology counter reflects the last completion poll, so
	// it may trail the daemons' own count; the lag is reported, not hidden.
	win.layer["topo.peer_hops_per_frame"] = float64(hops) / ops
	win.layer["topo.counter_lag_hops"] = float64(hops - (svcAfter.Topo.PeerForwards - svcBefore.Topo.PeerForwards))
	win.layer["topo.stranded"] = float64(svcAfter.Topo.Stranded-svcBefore.Topo.Stranded) / ops
	win.layer["topo.redelivered"] = float64(svcAfter.Topo.Redelivered-svcBefore.Topo.Redelivered) / ops
	win.layer["service.retried"] = float64(svcAfter.Retried-svcBefore.Retried) / ops
	win.layer["service.duplicates"] = float64(svcAfter.Duplicates-svcBefore.Duplicates) / ops
	win.layer["service.submit_blocked_ms"] = ms(blocked) / float64(max(waves, 1))
	nodeLayer(win.layer, reqBefore, reqAfter, ops)
	return win, nil
}

func (r *streamRig) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	for _, ctl := range r.ctls {
		ctl.Client().Close()
	}
	closeNodes(r.nodes)
}

// ---------------------------------------------------------------------------
// paper-sim: sieve.Run(FarmStealing) on the simulated 7-node testbed.

type simRig struct {
	params  sieve.Params
	virtual time.Duration // of the first run; every later run must match
	count   int
	sum     uint64
}

func startSim(cfg config) (instance, error) {
	r := &simRig{params: sieve.Params{Max: 1_000_000, Packs: 50, Filters: 16, Skew: 8}}
	// The sieve fixes the inputs; the seed only names the run.
	r.count, r.sum = sieve.Checksum(sieve.Reference(r.params.Max))
	first, err := sieve.Run(sieve.FarmStealing, r.params)
	if err != nil {
		return nil, err
	}
	r.virtual = first.Elapsed
	warm, err := r.measure(time.Time{}, 1, nil)
	if err == nil && !warm.correct() {
		err = fmt.Errorf("warm-up run: %v", warm.problems)
	}
	return r, err
}

func (r *simRig) measure(until time.Time, maxOps int64, tr *tracer) (window, error) {
	win := newWindow()
	var steals par.StealStats
	var comm par.CommStats
	var host time.Duration
	for keepGoing(win.attempted, maxOps, until) {
		t0 := time.Now()
		res, err := sieve.Run(sieve.FarmStealing, r.params)
		t1 := time.Now()
		win.attempted++
		tr.record(tr.newID(), "sieve.Run", t0, t1, 0, win.attempted, 0)
		st := res.Steals
		switch {
		case err != nil:
			win.problem("run %d: %v", win.attempted, err)
			continue
		case res.PrimeCount != r.count || res.PrimeSum != r.sum:
			win.problem("run %d: checksum (%d, %d), want (%d, %d)", win.attempted, res.PrimeCount, res.PrimeSum, r.count, r.sum)
			continue
		case res.Elapsed != r.virtual:
			win.problem("run %d: virtual time %v, first run %v (nondeterministic scheduler)", win.attempted, res.Elapsed, r.virtual)
			continue
		case st.Executed != st.Seeded+st.Splits:
			win.problem("run %d: executed %d packs, seeded %d + splits %d", win.attempted, st.Executed, st.Seeded, st.Splits)
			continue
		}
		win.sample(t1, t1.Sub(t0))
		host += t1.Sub(t0)
		comm.Messages += res.Comm.Messages
		comm.Bytes += res.Comm.Bytes
		steals.Steals += st.Steals
		steals.Stolen += st.Stolen
		steals.Splits += st.Splits
		steals.FailedScans += st.FailedScans
	}
	win.elapsed = time.Since(win.start)
	win.failed = win.attempted - win.ops
	ops := float64(max(win.ops, 1))
	// Simulated middleware traffic: messages the testbed's RMI carried.
	win.layer["rmi.msgs_per_op"] = float64(comm.Messages) / ops
	win.layer["rmi.bytes_per_op"] = float64(comm.Bytes) / ops
	schedLayer(win.layer, steals, ops)
	win.layer["sim.virtual_ms"] = ms(r.virtual)
	win.layer["sim.host_ms_per_virtual_s"] = ms(host) / ops / r.virtual.Seconds()
	return win, nil
}

func (r *simRig) close() {}
