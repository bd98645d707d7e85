package par

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// This file is NetRMI's fault-tolerance subsystem: an optional layer (see
// FaultPolicy; the zero value keeps the fail-fast behaviour bit-identical)
// that turns a transport failure from a run-killing poison into something the
// middleware recovers from. Three mechanisms compose:
//
//   - Reconnect + replay (same incarnation): every call is journaled per
//     peer, keyed by a session sequence number, until its acknowledgement
//     arrives. When the connection dies, a recovery goroutine re-dials under
//     the bounded-backoff rmi.ReconnectPolicy; if the session-epoch handshake
//     shows the same server incarnation (a transport blip — the node and its
//     objects survived), the unacknowledged journal is replayed with its
//     original sequence numbers and the server's at-most-once dedupe absorbs
//     the calls that were applied before the connection died.
//
//   - Reincarnation (same node, new epoch): a changed epoch means the node
//     restarted and every placed object — with all its accumulated state —
//     is gone. Recovery re-runs each object's creation protocol from the
//     journaled constructor arguments and replays its applied-call history in
//     order, reconstructing the state; re-execution is correct precisely
//     because the previous incarnation's effects vanished with it. Then the
//     unacknowledged calls are replayed (or, under RequeueOrphans, handed
//     back to the scheduler as retryable orphans).
//
//   - Placement failover (node unreachable): when the reconnect budget is
//     exhausted the peer is declared lost. Unless NoFailover is set, its
//     objects are re-created on a surviving node the same way (creation +
//     history replay), the registry placement is remapped — Distribution's
//     NodeOf, and with it the scheduler's placement-aware stealing, now
//     reports the surviving node — and the orphaned calls follow. When no
//     surviving node hosts the class, the journal is failed with a typed
//     NoFailoverError that Join surfaces: fail fast, not silent loss.
//
// Every peer and every export carries one fstate, and the only writes to it
// are step's transitions (see the table below), applied through
// netFaults.to. The goroutines that exist anyway drive it: a transport
// outcome or a drain claims a peer for recovery, a re-homing move claims an
// export, and each ends in healthy (journal replayed, move finished) or dead
// (failed over, dropped, refused, or its generation ended).
//
// Everything is guarded by a generation counter: NetRMI.Reset (a driver
// starting a fresh run) and Close bump it, and a recovery observing a stale
// generation abandons instead of resurrecting pre-reset exports. The node
// guards the same race from its side by rotating its session epoch on reset,
// so a replay that slips past the client-side check is rejected as stale.

// FaultPolicy configures NetRMI's fault tolerance. The zero value disables
// it: transport failures poison the peer's window permanently and fail fast,
// exactly the pre-fault behaviour.
type FaultPolicy struct {
	// Enabled turns the journal, reconnect/replay and failover machinery on.
	Enabled bool
	// Reconnect bounds each recovery round's re-dial schedule; the zero
	// value selects rmi.ReconnectPolicy's defaults (5 attempts, 5ms..250ms
	// exponential backoff).
	Reconnect rmi.ReconnectPolicy
	// NoFailover keeps recovery reconnect-only: a lost peer's calls fail
	// (or requeue, see RequeueOrphans) instead of moving its objects to a
	// surviving node.
	NoFailover bool
	// RequeueOrphans hands the unacknowledged *windowed* calls of a lost
	// session back to their caller as retryable FaultErrors instead of
	// replaying them: the stealing farm's scheduler re-absorbs the orphaned
	// packs and a surviving replica re-executes them. Object state is still
	// reconstructed by history replay; only the in-flight packs change hands.
	RequeueOrphans bool
	// CheckpointEvery bounds the replay journal: once an export's
	// applied-call history reaches this length, the fault layer asks the
	// object to Snapshot itself and truncates the history behind the
	// checkpoint, so reincarnation replays a checkpoint Restore plus a
	// short tail instead of the full history. Classes opt in by defining
	// Snapshot (no args, returns the state) and Restore (takes Snapshot's
	// results) methods; an object whose class lacks them simply keeps the
	// unbounded history. 0 disables checkpointing (bit-identical journals).
	CheckpointEvery int
}

// maxRecoveryRounds is the number of full reconnect+replay cycles per
// failure before the peer is declared lost: a replay can itself hit a dying
// node, so one retry round is allowed.
const maxRecoveryRounds = 2

// FaultStats counts what the fault layer did — the observability a
// resilience mechanism needs to be trusted. Snapshot via NetRMI.FaultStats.
type FaultStats struct {
	// Reconnects counts successful re-dials (same or new incarnation).
	Reconnects int64
	// Replays counts journal entries re-executed after a reconnect —
	// unacknowledged calls and applied-history calls alike.
	Replays int64
	// Failovers counts objects re-created on a fresh incarnation: on their
	// own restarted node, or on a surviving node after placement failover.
	Failovers int64
	// DroppedPeers counts peers given up on after the recovery budget.
	DroppedPeers int64
	// Requeues counts windowed calls handed back to the scheduler as
	// retryable orphans (FaultPolicy.RequeueOrphans).
	Requeues int64
	// Abandoned counts peers drained without replay because their
	// generation ended (Reset/Close raced the recovery). Tests use it as
	// the "recovery finished, nothing resurrected" signal.
	Abandoned int64
	// Drains counts live peers proactively migrated off their node
	// (NetRMI.Drain — the cordon/drain control-plane path, as opposed to
	// crash-triggered failover).
	Drains int64
	// Checkpoints counts Snapshot checkpoints taken to truncate export
	// histories (FaultPolicy.CheckpointEvery).
	Checkpoints int64
}

// FaultError wraps a call the fault layer could not transparently recover.
// Retryable reports that the call never executed anywhere — its state effect
// is not lost, just unplaced — so the caller may re-dispatch it elsewhere;
// the stealing farm's windowed loop does exactly that with the original
// Args (scheduler reabsorption). Non-retryable errors are terminal.
type FaultError struct {
	Object    string
	Method    string
	Node      exec.NodeID
	Retryable bool
	// Args is the original argument list of a retryable call: the pack the
	// scheduler re-absorbs. Nil on terminal errors.
	Args []any
	Err  error
}

// Error implements error.
func (e *FaultError) Error() string {
	verb := "lost"
	if e.Retryable {
		verb = "orphaned"
	}
	return fmt.Sprintf("par: netrmi %s call %s.%s (node %d): %v", verb, e.Object, e.Method, e.Node, e.Err)
}

// Unwrap implements errors.Is/As chaining.
func (e *FaultError) Unwrap() error { return e.Err }

// NoFailoverError reports that an exported object lost its node and no
// surviving node could host its class: recovery has nowhere to re-create it,
// so the run must fail fast. It surfaces through NetRMI's Join (and wrapped
// inside the FaultErrors delivered to the object's pending calls).
type NoFailoverError struct {
	Object string
	Class  string
	Node   exec.NodeID
	Err    error
}

// Error implements error.
func (e *NoFailoverError) Error() string {
	return fmt.Sprintf("par: netrmi cannot fail over %s (class %s) off node %d: %v", e.Object, e.Class, e.Node, e.Err)
}

// Unwrap implements errors.Is/As chaining.
func (e *NoFailoverError) Unwrap() error { return e.Err }

var (
	// errPeerLost is the base cause of calls dropped with an unreachable peer.
	errPeerLost = errors.New("peer unreachable after reconnect budget")
	// errSessionLost is the cause of windowed calls requeued because their
	// node restarted before acknowledging them.
	errSessionLost = errors.New("session lost before acknowledgement")
	// errMWReset marks calls invalidated by a middleware Reset racing recovery.
	errMWReset = errors.New("netrmi reset")
)

// --- State machine -----------------------------------------------------------

// fstate is the recovery state of one peer or one export.
type fstate uint8

const (
	// stHealthy: a peer whose calls transmit directly; an export that
	// serves where its record says.
	stHealthy fstate = iota
	// stRecovering: a peer owned by its one recovery (or drain) goroutine —
	// submissions journal without transmitting; an export mid re-homing —
	// submissions wait it out.
	stRecovering
	// stDead: terminal. A peer that failed over, was dropped or was
	// abandoned; an export that no node would re-create, or whose peer was
	// dropped. Submissions fail (or late-fail over, see lateFailover).
	stDead
	stInvalid // sentinel: marks the illegal cells of the table
)

// fevent is what happened to a peer or an export.
type fevent uint8

const (
	// evFault claims the record: a transport failure, a drain, or a
	// creation retry starts the peer's recovery; a move starts re-homing an
	// export.
	evFault fevent = iota
	// evHeal releases it healthy: the journal replayed, the move finished.
	evHeal
	// evLose ends it: the journal was failed over, dropped or abandoned;
	// the export was refused re-creation or lost with its peer.
	evLose
)

// transitions is the whole fault layer's state table:
//
//	state \ event   evFault       evHeal      evLose
//	healthy         recovering    —           dead
//	recovering      —             healthy     dead
//	dead            —             —           —
//
// A "—" cell is a no-op the caller observes as false: a second failure
// while recovering does not start a second recovery, a move finishing on an
// export that died meanwhile keeps it dead, and nothing leaves dead.
var transitions = [...][3]fstate{
	stHealthy:    {evFault: stRecovering, evHeal: stInvalid, evLose: stDead},
	stRecovering: {evFault: stInvalid, evHeal: stHealthy, evLose: stDead},
	stDead:       {stInvalid, stInvalid, stInvalid},
}

// step is the pure transition function over the table: the next state and
// whether ev is legal in s (illegal events leave s unchanged).
func step(s fstate, ev fevent) (fstate, bool) {
	if next := transitions[s][ev]; next != stInvalid {
		return next, true
	}
	return s, false
}

// to applies ev to *st — a peer's or an export's state — through step and
// wakes every waiter on a change: the one place fault state is written.
// fa.mu held.
func (fa *netFaults) to(st *fstate, ev fevent) bool {
	next, ok := step(*st, ev)
	if ok {
		*st = next
		fa.cond.Broadcast()
	}
	return ok
}

// --- Records -----------------------------------------------------------------

// netCall is one journaled invocation: it stays in its peer's in-flight
// journal from submission until the server's acknowledgement, which is what
// makes replay after a connection loss possible at all.
type netCall struct {
	seq      uint64
	stream   uint32 // dispatch stream the call rides: its seq space and dedupe key
	ref      *NetRef
	method   string
	args     []any
	void     bool
	windowed bool
	// ckpt marks the fault layer's own Snapshot probes: they must not be
	// recorded in the history they exist to truncate.
	ckpt bool
	// deliver hands the outcome to the caller exactly once; nil for
	// fire-and-forget void calls, whose terminal failures go to the Join
	// error list instead.
	deliver func(res []any, service time.Duration, err error)
}

// peerFault is one peer's recovery state plus its per-stream journals.
// Recovery (reconnect, reincarnation, failover) is a connection-level event
// and stays per peer; the journal — seq space, in-flight set, replay order —
// is per stream, because that is the server's dedupe granularity: sessions
// key on (client, stream) and each stream carries its own FIFO seq space.
type peerFault struct {
	node  exec.NodeID
	state fstate

	// journals maps stream id → that stream's journal. Stream 0 is the
	// control lane (exports, resets); objects multiplexed across streams
	// 1..n each journal on their own. Guarded by fa.mu; created lazily.
	journals map[uint32]*streamJournal

	// wired counts calls currently on the wire (transmitted, outcome not
	// yet back). A live drain quiesces on it: every wired call's effect is
	// in the history (or its entry back in the journal) before the drain
	// copies state to the target. Guarded by fa.mu.
	wired int
}

// streamJournal is one stream's half of the session contract with the node:
// its sequence counter, the unacknowledged calls, and their submission
// order (= replay order).
type streamJournal struct {
	// sendMu serialises this stream's tagged posts, so the stream's wire
	// order always equals its sequence order — the invariant the server's
	// per-stream dedupe rests on. Per stream, not per peer: a full send
	// window on one stream must not stall submissions on the others. Held
	// only across seq assignment + post, never across a response wait;
	// always acquired before fa.mu, never while holding it.
	sendMu sync.Mutex

	nextSeq  uint64
	inflight map[uint64]*netCall
	order    []uint64 // seqs in submission order (replay order)
}

// netExport is the fault layer's record of one placed object: everything
// needed to re-create it — constructor arguments and the history of applied
// calls — plus its current placement and state (stRecovering while a move
// owns it: one move at a time, and submissions wait it out rather than read
// or mutate the target's half-rebuilt state).
type netExport struct {
	ref      *NetRef
	name     string
	class    *Class
	node     exec.NodeID
	stream   uint32 // dispatch stream the object's calls ride; kept across failover
	ctorArgs []any
	history  []histEntry
	state    fstate

	// checkpoint is the last Snapshot result (Restore's arguments);
	// history holds only the calls applied after it. ckptPending gates one
	// probe at a time; ckptOff remembers that the class refused Snapshot
	// (no such method), so it is never asked again.
	checkpoint  []any
	ckptPending bool
	ckptOff     bool
}

type histEntry struct {
	method string
	args   []any
}

// netFaults is the per-middleware fault state: policy, journals, export
// records, the generation guard and the stats.
type netFaults struct {
	m      *NetRMI
	policy FaultPolicy
	nonce  int64 // session-identity nonce, unique per middleware instance

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int64
	closed  bool
	peers   map[exec.NodeID]*peerFault
	exports map[*NetRef]*netExport
	errs    []error // terminal fault errors, drained by Join

	reconnects   atomic.Int64
	replays      atomic.Int64
	failovers    atomic.Int64
	droppedPeers atomic.Int64
	requeues     atomic.Int64
	abandoned    atomic.Int64
	drains       atomic.Int64
	checkpoints  atomic.Int64
}

var faultNonce atomic.Int64

func newNetFaults(m *NetRMI, policy FaultPolicy) *netFaults {
	fa := &netFaults{
		m:      m,
		policy: policy,
		// The nonce is the session identity the node's dedupe keys on, so two
		// middleware instances must never share one. Clock+counter alone can
		// collide across hosts (same nanosecond, counters both at 1), and a
		// colliding identity would let one driver's replays dedupe against
		// another's session — MixIdentity's random bits break the tie.
		nonce:   rmi.MixIdentity(m.clk.Now().UnixNano() + faultNonce.Add(1)),
		peers:   make(map[exec.NodeID]*peerFault),
		exports: make(map[*NetRef]*netExport),
	}
	fa.cond = sync.NewCond(&fa.mu)
	return fa
}

// sessionID is the stable identity node sees from this middleware across
// reconnects — the dedupe key of its session.
func (fa *netFaults) sessionID(node exec.NodeID) string {
	return fmt.Sprintf("netrmi-%d/n%d", fa.nonce, node)
}

func (fa *netFaults) stats() FaultStats {
	return FaultStats{
		Reconnects:   fa.reconnects.Load(),
		Replays:      fa.replays.Load(),
		Failovers:    fa.failovers.Load(),
		DroppedPeers: fa.droppedPeers.Load(),
		Requeues:     fa.requeues.Load(),
		Abandoned:    fa.abandoned.Load(),
		Drains:       fa.drains.Load(),
		Checkpoints:  fa.checkpoints.Load(),
	}
}

// peerLocked returns node's fault record, creating it lazily. fa.mu held.
func (fa *netFaults) peerLocked(node exec.NodeID) *peerFault {
	pf := fa.peers[node]
	if pf == nil {
		pf = &peerFault{node: node, journals: make(map[uint32]*streamJournal)}
		fa.peers[node] = pf
	}
	return pf
}

// journalLocked returns stream's journal on pf, creating it lazily. fa.mu
// held.
func (fa *netFaults) journalLocked(pf *peerFault, stream uint32) *streamJournal {
	sj := pf.journals[stream]
	if sj == nil {
		sj = &streamJournal{inflight: make(map[uint64]*netCall)}
		pf.journals[stream] = sj
	}
	return sj
}

// journalOf returns stream's journal on node's peer. fa.mu must NOT be held.
func (fa *netFaults) journalOf(node exec.NodeID, stream uint32) *streamJournal {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return fa.journalLocked(fa.peerLocked(node), stream)
}

// generation returns the live journal generation.
func (fa *netFaults) generation() int64 {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return fa.gen
}

// stale reports whether gen no longer names the live generation.
func (fa *netFaults) stale(gen int64) bool {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return gen != fa.gen || fa.closed
}

// trackExport records a fresh export's re-creation recipe, including the
// dispatch stream its calls ride (preserved across reincarnation/failover,
// so a replayed call carries the same (stream, seq) dedupe key shape).
func (fa *netFaults) trackExport(ref *NetRef, class *Class, ctorArgs []any, stream uint32) {
	fa.mu.Lock()
	fa.exports[ref] = &netExport{
		ref: ref, name: ref.Name, class: class, node: ref.Node, stream: stream,
		ctorArgs: append([]any(nil), ctorArgs...),
	}
	fa.mu.Unlock()
}

// exportsOn snapshots the live exports currently placed on node, in a
// stable (name) order so recovery is reproducible. fa.mu must NOT be held.
func (fa *netFaults) exportsOn(node exec.NodeID) []*netExport {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	var out []*netExport
	for _, exp := range fa.exports {
		if exp.node == node && exp.state != stDead {
			out = append(out, exp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// --- Submission --------------------------------------------------------------

// invokeAsync is the fault-mode windowed dispatch path: the call is
// journaled and its completion — stamped with the RTT/service tuning
// signals like the fail-fast path — arrives on done when it finally
// executed, possibly after a replay on another incarnation. Void calls keep
// their complete-at-send semantics: the completion is delivered immediately
// and the journal holds the call until the acknowledgement.
func (fa *netFaults) invokeAsync(ctx exec.Context, obj any, method string, args []any, void bool, done exec.Chan) {
	ref, ok := obj.(*NetRef)
	if !ok {
		done.Send(ctx, &Completion{Err: fmt.Errorf("par: netrmi invoke on unexported object (%s)", method)})
		return
	}
	if void {
		fa.submit(&netCall{ref: ref, method: method, args: args, void: true, windowed: true})
		done.Send(ctx, &Completion{})
		return
	}
	elems := payloadElems(args)
	issued := fa.m.clk.Now()
	fa.submit(&netCall{
		ref: ref, method: method, args: args, windowed: true,
		deliver: func(res []any, service time.Duration, err error) {
			done.Send(ctx, stampCompletion(fa.m.clk, res, err, issued, service, elems))
		},
	})
}

// invokeSync is the fault-mode synchronous dispatch path: the caller blocks
// on the journaled call's final outcome — through recovery, if the
// transport fails under it. Void calls stay fire-and-forget; their terminal
// failures surface in Join.
func (fa *netFaults) invokeSync(obj any, method string, args []any, void bool) ([]any, error) {
	ref, ok := obj.(*NetRef)
	if !ok {
		return nil, fmt.Errorf("par: netrmi invoke on unexported object (%s)", method)
	}
	if void {
		fa.submit(&netCall{ref: ref, method: method, args: args, void: true})
		return nil, nil
	}
	type out struct {
		res []any
		err error
	}
	ch := make(chan out, 1)
	fa.submit(&netCall{
		ref: ref, method: method, args: args,
		deliver: func(res []any, _ time.Duration, err error) { ch <- out{res, err} },
	})
	o := <-ch
	return o.res, o.err
}

// submit journals one call and transmits it, unless its peer is recovering
// (the recovery loop transmits queued entries in order) or lost (the call is
// delivered failed immediately). ref resolution failed upstream when exp is
// absent. This is the asynchronous twin of roundTrip: the same seq-then-post
// send section, with the journal entry in place of a wait.
func (fa *netFaults) submit(call *netCall) {
	for {
		fa.mu.Lock()
		exp := fa.exports[call.ref]
		if exp == nil {
			fa.mu.Unlock()
			fa.finish(call, nil, 0, fmt.Errorf("par: netrmi invoke on unexported object (%s)", call.method))
			return
		}
		for exp.state == stRecovering && !fa.closed {
			// Mid re-homing: the new placement hosts a half-rebuilt object
			// until the history replay finishes. No locks held but fa.mu (which
			// Wait releases), so the replay can make progress.
			fa.cond.Wait()
		}
		if exp.state == stDead {
			node := exp.node
			fa.mu.Unlock()
			fa.deliverOrphan(call, node, errPeerLost)
			return
		}
		node := exp.node
		stream := exp.stream
		pf := fa.peerLocked(node)
		sj := fa.journalLocked(pf, stream)
		fa.mu.Unlock()

		sj.sendMu.Lock()
		fa.mu.Lock()
		if fa.exports[call.ref] != exp || exp.state != stHealthy || exp.node != node {
			// The placement moved (failover), started moving, or the journal
			// generation ended while we queued for the stream's send slot:
			// resolve again.
			fa.mu.Unlock()
			sj.sendMu.Unlock()
			continue
		}
		if pf.state == stDead {
			fa.mu.Unlock()
			sj.sendMu.Unlock()
			if fa.lateFailover(exp, node) {
				continue // the export found a new home: re-resolve and transmit
			}
			fa.deliverOrphan(call, node, errPeerLost)
			return
		}
		sj.nextSeq++
		call.seq = sj.nextSeq
		call.stream = stream
		sj.inflight[call.seq] = call
		sj.order = append(sj.order, call.seq)
		recovering := pf.state == stRecovering
		gen := fa.gen
		fa.mu.Unlock()
		if !recovering {
			// Transmit inside the stream's send section: the stream's wire
			// order == its seq order.
			fa.transmit(pf, call, gen)
		} // else: the recovery loop drains the journals, this entry included
		sj.sendMu.Unlock()
		return
	}
}

// transmit puts one journaled call on the wire. Outcomes — including the
// transport failures that start recovery — flow through onOutcome.
func (fa *netFaults) transmit(pf *peerFault, call *netCall, gen int64) {
	stub, err := fa.m.stubOf(call.method, call.ref)
	if err != nil {
		fa.settle(pf, call, nil, 0, err)
		return
	}
	// On the wire from here: onOutcome unwires exactly once per transmit.
	fa.mu.Lock()
	pf.wired++
	fa.mu.Unlock()
	if call.void {
		reqSize := fa.m.sizer.Size(call.args)
		stub.SendSeq(call.method, call.seq, func(ackErr error) {
			if ackErr == nil {
				fa.m.stats.count(2, int64(reqSize+replyFloor))
			}
			fa.onOutcome(pf, call, gen, nil, 0, ackErr)
		}, call.args...)
		return
	}
	fa.m.stats.count(1, int64(fa.m.sizer.Size(call.args)))
	stub.InvokeSeq(call.method, call.seq, func(res []any, svc time.Duration, err error) {
		fa.m.stats.count(1, int64(approxReplySize(res)))
		fa.onOutcome(pf, call, gen, res, svc, err)
	}, call.args...)
}

// onOutcome classifies one wire outcome: executed calls settle, transport
// failures leave the entry journaled and start the peer's recovery.
func (fa *netFaults) onOutcome(pf *peerFault, call *netCall, gen int64, res []any, svc time.Duration, err error) {
	fa.mu.Lock()
	pf.wired--
	fa.cond.Broadcast() // a drain may be quiescing on wired == 0
	fa.mu.Unlock()
	if err == nil || isExecuted(err) {
		fa.settle(pf, call, res, svc, err)
		return
	}
	if errors.Is(err, rmi.ErrStaleSession) {
		// The node's session epoch rotated under us (a reset raced this
		// call): the journal is for a session that no longer exists. Never
		// replay into the fresh one.
		fa.settle(pf, call, nil, 0, faultErr(call, pf.node, err))
		return
	}
	// Transport failure: the call may or may not have been applied — exactly
	// what the journal + server-side dedupe exist to disambiguate.
	fa.mu.Lock()
	if gen != fa.gen || fa.closed {
		sj := pf.journals[call.stream]
		live := sj != nil && sj.inflight[call.seq] == call
		if live {
			dropLocked(sj, call.seq)
		}
		fa.mu.Unlock()
		if live {
			fa.finish(call, nil, 0, err)
		}
		return
	}
	start := fa.to(&pf.state, evFault)
	fa.mu.Unlock()
	if start {
		go fa.recover(pf, gen)
	}
}

// isExecuted reports whether err proves the server dispatched the call (a
// servant-level failure travelled back on a healthy connection).
func isExecuted(err error) bool {
	var re *rmi.RemoteError
	return errors.As(err, &re)
}

// settle removes a journal entry — the call's outcome is final — records the
// applied-call history used for state reconstruction, and delivers. A call
// already settled elsewhere (reset drain, close) is left alone.
func (fa *netFaults) settle(pf *peerFault, call *netCall, res []any, svc time.Duration, err error) {
	fa.mu.Lock()
	sj := pf.journals[call.stream]
	if sj == nil || sj.inflight[call.seq] != call {
		fa.mu.Unlock()
		return
	}
	dropLocked(sj, call.seq)
	if err == nil && !call.ckpt {
		if exp := fa.exports[call.ref]; exp != nil && exp.state != stDead {
			exp.history = append(exp.history, histEntry{method: call.method, args: call.args})
			if fa.policy.CheckpointEvery > 0 && !exp.ckptOff && !exp.ckptPending &&
				len(exp.history) >= fa.policy.CheckpointEvery {
				exp.ckptPending = true
				go fa.checkpoint(exp)
			}
		}
	}
	fa.cond.Broadcast()
	fa.mu.Unlock()
	fa.finish(call, res, svc, err)
}

// checkpoint bounds one export's replay journal: a Snapshot probe rides the
// object's own dispatch stream, so by the time its response callback runs,
// every call the server applied before the snapshot has settled into the
// history — per-stream FIFO plus in-order response delivery make "the
// history at delivery time" exactly the state the snapshot captured, and
// truncating behind it is safe. A class that does not define Snapshot
// answers with a RemoteError; the export remembers (ckptOff) and keeps its
// unbounded history.
func (fa *netFaults) checkpoint(exp *netExport) {
	fa.submit(&netCall{
		ref: exp.ref, method: "Snapshot", ckpt: true,
		deliver: func(res []any, _ time.Duration, err error) {
			fa.mu.Lock()
			defer fa.mu.Unlock()
			exp.ckptPending = false
			// Only a servant-level refusal disables checkpointing; a
			// transport-path failure leaves the gate open for a retry after
			// the next applied call.
			exp.ckptOff = exp.ckptOff || isExecuted(err)
			if err != nil || exp.state == stDead {
				return
			}
			// Non-nil even for an empty snapshot: nil means "no checkpoint".
			exp.checkpoint = append(make([]any, 0, len(res)), res...)
			exp.history = nil
			fa.checkpoints.Add(1)
		},
	})
}

// dropLocked removes seq from one stream's journal. fa.mu held.
func dropLocked(sj *streamJournal, seq uint64) {
	delete(sj.inflight, seq)
	for i, s := range sj.order {
		if s == seq {
			sj.order = append(sj.order[:i], sj.order[i+1:]...)
			break
		}
	}
}

// finish hands a call's final outcome to its caller; fire-and-forget void
// calls report terminal failures through the Join error list instead.
func (fa *netFaults) finish(call *netCall, res []any, svc time.Duration, err error) {
	if call.deliver != nil {
		call.deliver(res, svc, err)
		return
	}
	if err != nil {
		fa.recordErr(err)
	}
}

func (fa *netFaults) recordErr(err error) {
	fa.mu.Lock()
	fa.errs = append(fa.errs, err)
	fa.cond.Broadcast()
	fa.mu.Unlock()
}

// faultErr is the terminal FaultError of call against node.
func faultErr(call *netCall, node exec.NodeID, err error) *FaultError {
	return &FaultError{Object: call.ref.Name, Method: call.method, Node: node, Err: err}
}

// deliverOrphan fails one call against a lost peer: retryable — so the
// stealing scheduler re-absorbs the pack — when the policy requeues orphans
// and the call is a windowed pack with a caller to hand it back to.
func (fa *netFaults) deliverOrphan(call *netCall, node exec.NodeID, cause error) {
	fe := faultErr(call, node, cause)
	if fa.policy.RequeueOrphans && call.windowed && call.deliver != nil {
		fe.Retryable, fe.Args = true, call.args
		fa.requeues.Add(1)
	}
	fa.finish(call, nil, 0, fe)
}

// --- Recovery ----------------------------------------------------------------

// recover is the per-peer recovery loop: reconnect, then replay (same
// epoch), reincarnate + replay (new epoch), or fail the peer over when the
// budget is spent. Exactly one recovery goroutine runs per peer at a time:
// only the evFault transition that claimed the peer starts one.
func (fa *netFaults) recover(pf *peerFault, gen int64) {
	if client := fa.m.clientOf(pf.node); client != nil {
		for round := 0; round < maxRecoveryRounds && !fa.stale(gen); round++ {
			sameEpoch, err := client.Reconnect()
			if err != nil {
				break // unreachable within the dial budget
			}
			fa.reconnects.Add(1)
			// A new incarnation's sessions started empty: rebuild its objects
			// first, and requeue rather than replay its windowed orphans when
			// the policy says so.
			var orphan error
			if !sameEpoch && fa.policy.RequeueOrphans {
				orphan = errSessionLost
			}
			tp, err := fa.m.peer(pf.node)
			ok := sameEpoch || (err == nil && fa.reincarnate(pf, gen, tp, pf.node))
			if ok && fa.drainJournal(pf, gen, sameEpoch, orphan, evHeal) {
				return // drainJournal healed the peer under the lock
			}
		}
	}
	fa.failPeer(pf, gen)
}

// drainJournal replays pf's journals until they are empty — streams in
// ascending id (the control lane first), each stream in submission order —
// and then applies final to the peer: evHeal once a reconnect has replayed
// everything, evLose once a failover or drain has redirected it. Each entry
// replays where its export now lives: pf.node itself after a reconnect, the
// survivor its object was just rebuilt on after a failover. reuse keeps the
// original sequence numbers (a same-epoch reconnect: the node's per-stream
// dedupe absorbs calls applied before the connection died); otherwise
// replays draw fresh ones, since a new incarnation's sessions started
// empty. A non-nil orphan hands windowed entries back to their callers as
// retryable FaultErrors with that cause instead of replaying them. Entries
// submitted while recovery runs are part of the same drain. A transport
// failure mid-replay returns false: the caller starts another round or
// tries another target.
func (fa *netFaults) drainJournal(pf *peerFault, gen int64, reuse bool, orphan error, final fevent) bool {
	for {
		fa.mu.Lock()
		if gen != fa.gen || fa.closed {
			fa.mu.Unlock()
			return false
		}
		var sj *streamJournal
		var stream uint32
		for id, j := range pf.journals {
			if len(j.order) > 0 && (sj == nil || id < stream) {
				sj, stream = j, id
			}
		}
		if sj == nil {
			fa.to(&pf.state, final)
			fa.mu.Unlock()
			return true
		}
		call := sj.inflight[sj.order[0]]
		if orphan != nil && call.windowed && call.deliver != nil {
			dropLocked(sj, call.seq)
			fa.cond.Broadcast()
			fa.mu.Unlock()
			fa.deliverOrphan(call, pf.node, orphan)
			continue
		}
		wire, seq := sj, uint64(0)
		if reuse {
			seq = call.seq
		}
		if exp := fa.exports[call.ref]; exp != nil && exp.node != pf.node {
			wire = fa.journalLocked(fa.peerLocked(exp.node), stream)
		}
		fa.mu.Unlock()
		stub, err := fa.m.stubOf(call.method, call.ref)
		if err != nil {
			return false
		}
		_, res, svc, err := fa.roundTrip(stub, wire, seq, call.method, call.args)
		if err == nil {
			fa.m.stats.count(2, int64(fa.m.sizer.Size(call.args)+approxReplySize(res)))
		}
		if errors.Is(err, rmi.ErrStaleSession) {
			// The node's epoch rotated mid-replay (a reset raced it): the
			// outcome is terminal and typed, as on the live path.
			err = faultErr(call, pf.node, err)
		} else if err != nil && !isExecuted(err) {
			return false // transport failure: reconnect again, or try another target
		}
		fa.replays.Add(1)
		fa.settle(pf, call, res, svc, err)
	}
}

// roundTrip runs one session-tracked call synchronously on stub. The
// sequence number — seq itself when non-zero (a same-epoch replay, or a
// creation retried across a recovery: an application whose acknowledgement
// was lost dedupes instead of running twice), else sj's next — is drawn and
// the request posted inside sj's send section, so the stream's wire order
// equals its sequence order even when live submissions interleave; the wait
// for the outcome happens outside it. The seq used is returned.
func (fa *netFaults) roundTrip(stub *rmi.Stub, sj *streamJournal, seq uint64, method string, args []any) (uint64, []any, time.Duration, error) {
	type out struct {
		res []any
		svc time.Duration
		err error
	}
	ch := make(chan out, 1)
	sj.sendMu.Lock()
	if seq == 0 {
		fa.mu.Lock()
		sj.nextSeq++
		seq = sj.nextSeq
		fa.mu.Unlock()
	}
	stub.InvokeSeq(method, seq, func(res []any, svc time.Duration, err error) {
		ch <- out{res, svc, err}
	}, args...)
	sj.sendMu.Unlock()
	o := <-ch
	return seq, o.res, o.svc, o.err
}

// reincarnate re-creates every object placed on pf.node at target (the same
// node after a restart, a surviving node during failover) and replays each
// object's applied-call history in order, reconstructing the state the lost
// incarnation took with it. Re-execution is correct exactly because the
// previous incarnation's effects are gone.
func (fa *netFaults) reincarnate(pf *peerFault, gen int64, tp *netPeer, target exec.NodeID) bool {
	for _, exp := range fa.exportsOn(pf.node) {
		if fa.stale(gen) || !fa.reexport(exp, tp, target, gen) {
			return false
		}
	}
	return true
}

// reexport moves one object: it claims the export (evFault — one move at a
// time; from here until the last history entry lands the target hosts a
// half-rebuilt object, and submit waits the claim out holding no stream send
// slot, so the replay cannot deadlock against it), runs the creation
// protocol at target, remaps the placement (registry, stubs, the export
// record) and replays the history there. It ends the claim healthy, or dead
// when target refused the object. False means a transport failure: try
// again or elsewhere. A dead export has nothing to move and reports true.
func (fa *netFaults) reexport(exp *netExport, tp *netPeer, target exec.NodeID, gen int64) bool {
	fa.mu.Lock()
	for exp.state == stRecovering && !fa.closed {
		fa.cond.Wait()
	}
	if fa.closed || !fa.to(&exp.state, evFault) {
		closed := fa.closed
		fa.mu.Unlock()
		return !closed
	}
	fa.mu.Unlock()
	end := evHeal
	defer func() {
		fa.mu.Lock()
		fa.to(&exp.state, end)
		fa.mu.Unlock()
	}()
	ctlArgs := append([]any{exp.class.Name(), exp.name}, exp.ctorArgs...)
	if _, _, _, err := fa.roundTrip(tp.ctl, fa.journalOf(target, 0), 0, rmi.CtlExportNew, ctlArgs); err != nil {
		if isExecuted(err) {
			// The node answered but refused — it does not host the class, or
			// the name is taken: nowhere to rebuild this object.
			fa.recordErr(&NoFailoverError{Object: exp.name, Class: exp.class.Name(), Node: exp.node, Err: err})
			end = evLose
			return true // other exports may still recover
		}
		return false
	}
	stub, err := tp.client.Lookup(exp.name)
	if err != nil {
		return false
	}
	if exp.stream != 0 {
		// The object keeps its dispatch stream across incarnations, so every
		// replayed and future call carries the same (stream, seq) key shape.
		stub = stub.OnStream(exp.stream)
	}
	fa.m.remap(exp.ref, stub, target)
	fa.mu.Lock()
	exp.node = target
	history := append([]histEntry(nil), exp.history...)
	if exp.checkpoint != nil {
		// The journal was truncated behind a Snapshot: reconstruct from the
		// checkpoint first, then the short post-checkpoint tail.
		history = append([]histEntry{{method: "Restore", args: exp.checkpoint}}, history...)
	}
	fa.mu.Unlock()
	fa.failovers.Add(1)
	tsj := fa.journalOf(target, exp.stream)
	for _, h := range history {
		if fa.stale(gen) {
			return false
		}
		if _, _, _, err := fa.roundTrip(stub, tsj, 0, h.method, h.args); err != nil {
			if !isExecuted(err) {
				return false
			}
			// The original application succeeded, the reconstruction did
			// not: the rebuilt state is incomplete — surface it.
			fa.recordErr(fmt.Errorf("par: netrmi history replay of %s.%s at node %d: %w", exp.name, h.method, target, err))
			continue
		}
		fa.replays.Add(1)
	}
	return true
}

// exportNew is the fault-mode creation protocol: the control call is
// session-tracked and retried through recovery, so a node crash mid-export
// — the driver placing objects while the chaos harness kills the node — is
// survived like any other failure. When the requested node is gone for
// creation purposes (see createAt) and the policy allows failover, the
// object — built nowhere yet — is created on a survivor instead, found by
// the same re-homing walk crash failover uses; the node it landed on is
// returned. With no survivor to try, the requested node gets one more
// budget of attempts: it may be mid restart.
func (fa *netFaults) exportNew(node exec.NodeID, name string, ctlArgs []any) (*rmi.Stub, exec.NodeID, error) {
	failover := !fa.policy.NoFailover
	stub, lost, err := fa.createAt(node, name, ctlArgs, failover)
	if !lost || !failover {
		return stub, node, err
	}
	home, moved := node, false
	fa.rehome(fa.generation(), home, true, func(target exec.NodeID, _ *netPeer) bool {
		fa.failovers.Add(1)
		node, moved = target, true
		stub, lost, err = fa.createAt(target, name, ctlArgs, true)
		return !lost
	})
	if !moved {
		stub, _, err = fa.createAt(home, name, ctlArgs, false)
	}
	return stub, node, err
}

// createAt runs the creation protocol against node on the policy's
// ReconnectPolicy budget (attempts and exponential backoff, waited out on
// the middleware's clock): the operator who bounded how hard recovery
// re-dials a dead peer has bounded how hard placement does, too. The retry
// reuses its sequence number, so an export applied just before the
// connection died dedupes on replay. lost reports that node is gone for
// creation purposes: its peer's recovery failed, or — when mayLeave — it
// refused three dials in a row (dead at startup, or partitioned before we
// ever reached it: there is no journal to recover, and a transiently
// rebinding node loses nothing if the object runs on a survivor).
func (fa *netFaults) createAt(node exec.NodeID, name string, ctlArgs []any, mayLeave bool) (stub *rmi.Stub, lost bool, err error) {
	pol := fa.policy.Reconnect.WithDefaults()
	backoff := pol.BaseBackoff
	var seq uint64
	var seqEpoch int64
	dialFails := 0
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		p, derr := fa.m.peer(node)
		if derr != nil {
			// No established connection to recover: the node may be mid
			// restart — back off on the policy's schedule, then retry the dial.
			err = derr
			if dialFails++; mayLeave && dialFails >= 3 {
				return nil, true, err
			}
			fa.m.clk.Sleep(backoff)
			backoff = min(2*backoff, pol.MaxBackoff)
			continue
		}
		dialFails = 0
		// Seq reuse is a same-incarnation contract: against a fresh epoch
		// there is nothing to dedupe (the first attempt's application died
		// with the node), and the recovery's own reincarnation calls have
		// already advanced the new session past our number — reusing it
		// would dedupe into a no-op and leave the name unbound.
		if ep := p.client.Epoch(); ep != seqEpoch {
			seq, seqEpoch = 0, ep
		}
		seq, _, _, err = fa.roundTrip(p.ctl, fa.journalOf(node, 0), seq, rmi.CtlExportNew, ctlArgs)
		if err == nil {
			if stub, err = p.client.Lookup(name); err == nil {
				return stub, false, nil
			}
		}
		if isExecuted(err) || errors.Is(err, rmi.ErrStaleSession) {
			return nil, false, err // the node answered and refused: not a transport fault
		}
		if !fa.awaitRecovery(node) {
			return nil, true, err
		}
	}
	return nil, false, err
}

// awaitRecovery kicks off (if needed) and waits out node's recovery,
// reporting whether the peer came back healthy.
func (fa *netFaults) awaitRecovery(node exec.NodeID) bool {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	pf := fa.peerLocked(node)
	if fa.to(&pf.state, evFault) {
		go fa.recover(pf, fa.gen)
	}
	for pf.state == stRecovering {
		fa.cond.Wait()
	}
	return pf.state == stHealthy
}

// failPeer is the end of the reconnect budget: fail the journal over to a
// surviving node, or — NoFailover, or no survivor — drop the peer.
func (fa *netFaults) failPeer(pf *peerFault, gen int64) {
	var terminal error
	if !fa.policy.NoFailover {
		if fa.failover(pf, gen, true) {
			fa.droppedPeers.Add(1) // the peer itself stays lost
			return
		}
		// No survivor could take the lost objects: typed, Join-visible.
		if exps := fa.exportsOn(pf.node); len(exps) > 0 {
			terminal = &NoFailoverError{
				Object: exps[0].name, Class: exps[0].class.Name(), Node: pf.node,
				Err: errPeerLost,
			}
		}
	}
	fa.dropPeer(pf, gen, terminal)
}

// failover moves everything pf holds — its objects, rebuilt by reincarnate,
// then its journal, redirected by drainJournal — to the first target of the
// re-homing walk that takes it all, leaving the peer dead. Under
// RequeueOrphans the windowed entries go back to their callers instead.
func (fa *netFaults) failover(pf *peerFault, gen int64, lastResort bool) bool {
	var orphan error
	if fa.policy.RequeueOrphans {
		orphan = errPeerLost
	}
	return fa.rehome(gen, pf.node, lastResort, func(target exec.NodeID, tp *netPeer) bool {
		return fa.reincarnate(pf, gen, tp, target) && fa.drainJournal(pf, gen, false, orphan, evLose)
	})
}

// drainNode proactively migrates a LIVE node's exports to a survivor — the
// cordon→drain step of the elastic pool, reusing the crash machinery
// (failover) without waiting for the node to die. The ordering hazard a
// live drain adds over a crash is calls already on the wire: their effects
// would land on the source after the history snapshot and be lost on the
// target. So the drain first claims the peer (evFault: submissions keep
// journaling but stop transmitting), then quiesces — waits for every wired
// call's outcome, which either settles into the history or leaves its entry
// journaled for the redirect — and only then copies state over. Failure
// hands the peer to the ordinary recovery loop so the queued entries still
// drain.
func (fa *netFaults) drainNode(node exec.NodeID) error {
	fa.mu.Lock()
	gen := fa.gen
	pf := fa.peerLocked(node)
	// A crash recovery may already own the peer; wait it out rather than
	// racing it for the claim.
	for pf.state == stRecovering && gen == fa.gen && !fa.closed {
		fa.cond.Wait()
	}
	if gen != fa.gen || fa.closed {
		fa.mu.Unlock()
		return errMWReset
	}
	if !fa.to(&pf.state, evFault) {
		fa.mu.Unlock()
		return nil // already failed over or dropped: nothing left to move
	}
	for pf.wired > 0 && gen == fa.gen && !fa.closed {
		fa.cond.Wait()
	}
	fa.mu.Unlock()
	if fa.failover(pf, gen, false) {
		fa.drains.Add(1)
		return nil
	}
	if fa.stale(gen) {
		fa.dropPeer(pf, gen, nil)
		return errMWReset
	}
	go fa.recover(pf, gen)
	return fmt.Errorf("par: netrmi drain of node %d: no eligible target took its exports", node)
}

// lateFailover re-homes one live export stranded on a dead peer. The strand
// is a creation/death race: the object's placement succeeded, but its export
// record went live only after the peer's failover (or drain) sweep had
// snapshotted exportsOn — so the sweep moved everything it could see, marked
// the peer dead, and left this object behind. Submissions detect the strand
// (live export, dead peer) and finish the move here: re-create on a survivor,
// replay history, remap — exactly reexport. Returns true when the export has
// a new home (submit re-resolves and transmits there) or was refused one
// (submit re-resolves and orphans against the dead export); false means the
// call must be orphaned.
func (fa *netFaults) lateFailover(exp *netExport, node exec.NodeID) bool {
	if fa.policy.NoFailover {
		return false
	}
	fa.mu.Lock()
	for exp.state == stRecovering && !fa.closed {
		fa.cond.Wait() // another mover is re-homing it: ride its result
	}
	gen := fa.gen
	stuck := !fa.closed && exp.state == stHealthy && exp.node == node
	moved := !fa.closed && exp.state == stHealthy && exp.node != node
	fa.mu.Unlock()
	if !stuck {
		return moved // re-homed meanwhile (by the waited-out mover, or a sweep)
	}
	return fa.rehome(gen, node, true, func(target exec.NodeID, tp *netPeer) bool {
		return fa.reexport(exp, tp, target, gen)
	})
}

// rehome is the one re-homing walk: it offers the work leaving from to each
// candidate target in turn until try accepts one, and reports whether one
// did. Candidates are the configured nodes other than from, in ascending ID,
// skipping dead peers and nodes that do not answer a dial. Uncordoned nodes
// come first. A cordoned node is offered only as a last resort, after every
// uncordoned one, and only when lastResort is set: crash failover, late
// failover and creation retargeting set it — a cordon may be a health flap
// the pool lifts moments later, and moving the objects twice (the cordoned
// target's own drain re-migrates them) is strictly better than dropping
// them or failing the placement — while a drain does not, since draining
// onto a node that is itself being drained only moves the objects twice,
// and a drain with no clean target aborts harmlessly and retries later. The
// walk stops early once gen is stale.
func (fa *netFaults) rehome(gen int64, from exec.NodeID, lastResort bool, try func(target exec.NodeID, tp *netPeer) bool) bool {
	var open, fenced []exec.NodeID
	for _, n := range fa.m.nodeIDs() {
		if n == from {
			continue
		}
		if fa.m.Cordoned(n) {
			fenced = append(fenced, n)
		} else {
			open = append(open, n)
		}
	}
	if lastResort {
		open = append(open, fenced...)
	}
	for _, n := range open {
		if fa.stale(gen) {
			return false
		}
		fa.mu.Lock()
		dead := fa.peerLocked(n).state == stDead
		fa.mu.Unlock()
		if dead {
			continue
		}
		if tp, err := fa.m.peer(n); err == nil && try(n, tp) {
			return true
		}
	}
	return false
}

// --- Ending a journal --------------------------------------------------------

// dropPeer ends a recovery that cannot heal or fail over pf: the peer is
// lost (DroppedPeers) in the live generation, or abandoned (Abandoned) once
// Reset/Close ended it — nothing is replayed, since resurrecting pre-reset
// exports is exactly the bug the generation guard exists for.
func (fa *netFaults) dropPeer(pf *peerFault, gen int64, terminal error) {
	fa.mu.Lock()
	live := gen == fa.gen && !fa.closed
	if live {
		fa.droppedPeers.Add(1)
	} else {
		fa.abandoned.Add(1)
	}
	deliver := fa.endLocked(pf, live, terminal)
	fa.mu.Unlock()
	deliver()
}

// endLocked is the one way a journal ends without replay: pf goes dead and
// its entries leave the journal — streams ascending, submission order
// within each, so failure delivery is deterministic. A live peer was lost:
// its exports die with it, the terminal error (if any) waits for Join, and
// each entry is orphaned with it as cause (retryable for windowed packs
// under RequeueOrphans, so the scheduler re-absorbs them). Otherwise the
// generation that issued the entries has ended: each caller gets a terminal
// FaultError naming the reset or the close, and nothing reaches Join. It
// returns the delivery, which the caller runs once fa.mu is released.
// fa.mu held.
func (fa *netFaults) endLocked(pf *peerFault, live bool, terminal error) (deliver func()) {
	fa.to(&pf.state, evLose)
	streams := make([]uint32, 0, len(pf.journals))
	for id := range pf.journals {
		streams = append(streams, id)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i] < streams[j] })
	var calls []*netCall
	for _, id := range streams {
		sj := pf.journals[id]
		for _, seq := range sj.order {
			if c := sj.inflight[seq]; c != nil {
				calls = append(calls, c)
			}
		}
		sj.inflight = make(map[uint64]*netCall)
		sj.order = nil
	}
	cause := errMWReset
	switch {
	case live:
		for _, exp := range fa.exports {
			if exp.node == pf.node {
				fa.to(&exp.state, evLose)
			}
		}
		cause = errPeerLost
		if terminal != nil {
			fa.errs = append(fa.errs, terminal)
			cause = terminal
		}
	case fa.closed:
		cause = rmi.ErrClosed
	}
	return func() {
		for _, call := range calls {
			if live {
				fa.deliverOrphan(call, pf.node, cause)
			} else if call.deliver != nil {
				call.deliver(nil, 0, faultErr(call, pf.node, cause))
			}
		}
	}
}

// --- Lifecycle ---------------------------------------------------------------

// invalidate ends the current generation: active recoveries abandon at
// their next step, every journal ends (endLocked) atomically with the
// generation bump, and the export records are forgotten. Reset and Close
// (closing) both route through here.
func (fa *netFaults) invalidate(closing bool) {
	fa.mu.Lock()
	fa.gen++
	fa.closed = fa.closed || closing
	peers := fa.peers
	fa.peers = make(map[exec.NodeID]*peerFault)
	fa.exports = make(map[*NetRef]*netExport)
	ends := make([]func(), 0, len(peers))
	for _, pf := range peers {
		ends = append(ends, fa.endLocked(pf, false, nil))
	}
	fa.cond.Broadcast()
	fa.mu.Unlock()
	for _, deliver := range ends {
		deliver()
	}
}

// join blocks until every peer is quiescent — no recovery running, no
// journaled call unsettled — and returns the terminal fault errors.
func (fa *netFaults) join() error {
	fa.mu.Lock()
	for fa.busyLocked() {
		fa.cond.Wait()
	}
	errs := fa.errs
	fa.errs = nil
	fa.mu.Unlock()
	return errors.Join(errs...)
}

func (fa *netFaults) busyLocked() bool {
	for _, pf := range fa.peers {
		if pf.state == stRecovering {
			return true
		}
		for _, sj := range pf.journals {
			if len(sj.inflight) > 0 {
				return true
			}
		}
	}
	return false
}

func (fa *netFaults) quiet() bool {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return !fa.busyLocked()
}
