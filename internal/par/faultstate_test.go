package par

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"aspectpar/internal/exec"
	"aspectpar/internal/rmi"
)

// TestFaultStepTable walks every (state, event) cell of the fault layer's
// transition table: the four legal transitions land where the table says,
// and every other cell is rejected with the state unchanged.
func TestFaultStepTable(t *testing.T) {
	type cell struct {
		s  fstate
		ev fevent
	}
	legal := map[cell]fstate{
		{stHealthy, evFault}:   stRecovering,
		{stHealthy, evLose}:    stDead,
		{stRecovering, evHeal}: stHealthy,
		{stRecovering, evLose}: stDead,
	}
	names := map[fstate]string{stHealthy: "healthy", stRecovering: "recovering", stDead: "dead"}
	for _, s := range []fstate{stHealthy, stRecovering, stDead} {
		for _, ev := range []fevent{evFault, evHeal, evLose} {
			next, ok := step(s, ev)
			want, isLegal := legal[cell{s, ev}]
			switch {
			case isLegal && (!ok || next != want):
				t.Errorf("step(%s, %d) = %s,%v, want %s,true", names[s], ev, names[next], ok, names[want])
			case !isLegal && (ok || next != s):
				t.Errorf("step(%s, %d) = %s,%v, want the illegal event rejected (%s,false)", names[s], ev, names[next], ok, names[s])
			}
		}
	}
}

// claimPeer moves node's peer record along ev, as a recovery or drain would.
func (r *faultRig) claimPeer(node exec.NodeID, ev fevent) *peerFault {
	fa := r.mw.faults
	fa.mu.Lock()
	defer fa.mu.Unlock()
	pf := fa.peerLocked(node)
	if !fa.to(&pf.state, ev) {
		r.t.Fatalf("peer %d: event %d illegal in state %d", node, ev, pf.state)
	}
	return pf
}

// resetNode rotates node i's session epoch from a second, unrelated client
// (a whole-node CtlReset): every tracked request the rig's middleware sends
// there afterwards carries a stale epoch.
func (r *faultRig) resetNode(t *testing.T, i int) {
	t.Helper()
	c, err := rmi.Dial(r.addrs[i])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl, err := c.Lookup(rmi.ControlName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Invoke(rmi.CtlReset); err != nil {
		t.Fatal(err)
	}
}

// TestFaultStaleSessionTypedOnEveryDrain pins that a journal drain hitting
// a rotated epoch delivers a typed FaultError whether it replays on the
// same node after a reconnect or redirects to a failover target: both are
// the one drain loop, so the outcome cannot differ by path.
func TestFaultStaleSessionTypedOnEveryDrain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		reuse  bool
		final  fevent
		target int
	}{
		{name: "replay", nodes: 1, reuse: true, final: evHeal, target: 0},
		{name: "redirect", nodes: 2, reuse: false, final: evLose, target: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := startFaultRig(t, tc.nodes, FaultPolicy{})
			home := exec.NodeID(tc.nodes - 1)
			obj := r.export(t, "PS1", home)
			fa := r.mw.faults
			gen := fa.generation()
			pf := r.claimPeer(home, evFault) // journal without transmitting
			done := r.ctx.NewChan(2)
			r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(1)}, false, done)
			if exec.NodeID(tc.target) != home {
				tp, err := r.mw.peer(exec.NodeID(tc.target))
				if err != nil {
					t.Fatal(err)
				}
				if !fa.reincarnate(pf, gen, tp, exec.NodeID(tc.target)) {
					t.Fatal("rebuilding PS1 on the target failed")
				}
			}
			r.resetNode(t, tc.target)
			if !fa.drainJournal(pf, gen, tc.reuse, nil, tc.final) {
				t.Fatal("drain stopped on a stale session as if it were a transport failure")
			}
			v, _ := done.Recv(r.ctx)
			_, err := v.(*Completion).Reclaim(r.ctx)
			var fe *FaultError
			if !errors.As(err, &fe) || !errors.Is(err, rmi.ErrStaleSession) {
				t.Fatalf("stale replay delivered %v (%T), want a *FaultError wrapping ErrStaleSession", err, err)
			}
			if fe.Object != "PS1" || fe.Method != "Add" || fe.Retryable {
				t.Errorf("stale replay mislabelled: %+v", fe)
			}
			if msg := fe.Error(); !strings.Contains(msg, "lost call PS1.Add") {
				t.Errorf("FaultError.Error() = %q", msg)
			}
		})
	}
}

// deadAddr returns a loopback address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestFaultExportRetargetsOntoCordonedLastResort pins the one rule the
// re-homing walk applies to creation-time failover, whichever way the
// requested node was found gone: when the only survivor is cordoned, the
// object is created there (last resort) rather than failing the placement.
func TestFaultExportRetargetsOntoCordonedLastResort(t *testing.T) {
	short := FaultPolicy{Reconnect: rmi.ReconnectPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond}}
	check := func(t *testing.T, r *faultRig, obj any) {
		t.Helper()
		if node, ok := r.mw.NodeOf(obj); !ok || node != 0 {
			t.Errorf("NodeOf = %v,%v, want the cordoned survivor 0", node, ok)
		}
		if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(5)}, false); err != nil {
			t.Fatal(err)
		}
		if got := r.sum(t, obj); got != 5 {
			t.Errorf("sum = %d, want 5", got)
		}
		if st := r.mw.FaultStats(); st.Failovers == 0 {
			t.Errorf("retarget left no trace: %+v", st)
		}
	}
	t.Run("dial-refused", func(t *testing.T) {
		r := startFaultRig(t, 1, FaultPolicy{}) // budget > the 3 refused dials that count as gone
		r.mw.SetCordon(0, true)
		gone := r.mw.AddNode(deadAddr(t)) // never dialled: refuses from the start
		obj, err := r.mw.ExportNew(r.ctx, "PS1", gone, r.class, nil, nil)
		if err != nil {
			t.Fatalf("export onto a dead node with a cordoned survivor: %v", err)
		}
		check(t, r, obj)
	})
	t.Run("recovery-failed", func(t *testing.T) {
		r := startFaultRig(t, 2, short)
		r.export(t, "PS0", 1)
		r.mw.SetCordon(0, true)
		r.node(1).Abort() // the established peer dies: creation waits out its recovery
		obj, err := r.mw.ExportNew(r.ctx, "PS1", 1, r.class, nil, nil)
		if err != nil {
			t.Fatalf("export after its node's recovery failed, cordoned survivor left: %v", err)
		}
		check(t, r, obj)
	})
}

// TestFaultLateFailoverRehomesStrandedExport reproduces the creation/death
// strand directly: the peer is recorded dead while one of its exports is
// still live and placed there. The next submission must finish the move —
// rebuild the object on a survivor from its history, remap it, and run the
// call there — unless the policy pins placement, in which case the call is
// orphaned.
func TestFaultLateFailoverRehomesStrandedExport(t *testing.T) {
	t.Run("failover", func(t *testing.T) {
		r := startFaultRig(t, 2, FaultPolicy{})
		obj := r.export(t, "PS1", 1)
		for _, d := range []int64{1, 2} {
			if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{d}, false); err != nil {
				t.Fatal(err)
			}
		}
		r.claimPeer(1, evLose) // the strand: dead peer, live export left behind
		res, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(4)}, false)
		if err != nil {
			t.Fatalf("call on a stranded export: %v", err)
		}
		if res[0].(int64) != 7 {
			t.Errorf("Add returned %v, want 7 (history not replayed before the call)", res[0])
		}
		if node, ok := r.mw.NodeOf(obj); !ok || node != 0 {
			t.Errorf("NodeOf = %v,%v, want 0 (stranded export not remapped)", node, ok)
		}
		if st := r.mw.FaultStats(); st.Failovers == 0 || st.Replays < 2 {
			t.Errorf("late failover left no trace: %+v", st)
		}
		if err := r.mw.Join(r.ctx); err != nil {
			t.Errorf("Join: %v", err)
		}
	})
	t.Run("no-failover", func(t *testing.T) {
		r := startFaultRig(t, 2, FaultPolicy{NoFailover: true})
		obj := r.export(t, "PS1", 1)
		r.claimPeer(1, evLose)
		_, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(4)}, false)
		var fe *FaultError
		if !errors.As(err, &fe) || !errors.Is(err, errPeerLost) || fe.Retryable {
			t.Fatalf("pinned placement on a dead peer returned %v, want a terminal FaultError", err)
		}
	})
}

// TestFaultRefusedFailoverMarksExportDead kills an object's node when the
// only survivor does not host its class: the re-creation is refused, the
// export ends dead, the pending call is failed, Join reports the typed
// NoFailoverError (its cause the node's refusal), and later calls on the
// dead export fail immediately instead of hanging.
func TestFaultRefusedFailoverMarksExportDead(t *testing.T) {
	r := startFaultRig(t, 1, FaultPolicy{Reconnect: rmi.ReconnectPolicy{MaxAttempts: 2, BaseBackoff: 2 * time.Millisecond}})
	bare := rmi.NewNode(exec.Real()) // a daemon that hosts no classes
	bareAddr, err := bare.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(bare.Close)
	r.mw.AddNode(bareAddr)
	obj := r.export(t, "PS1", 0)
	r.node(0).Abort()
	done := r.ctx.NewChan(2)
	r.mw.InvokeAsync(r.ctx, obj, "Add", []any{int64(1)}, false, done)
	v, _ := done.Recv(r.ctx)
	if _, err := v.(*Completion).Reclaim(r.ctx); !errors.Is(err, errPeerLost) {
		t.Errorf("pending call = %v, want it failed as lost", err)
	}
	err = r.mw.Join(r.ctx)
	var nfe *NoFailoverError
	if !errors.As(err, &nfe) {
		t.Fatalf("Join = %v, want a NoFailoverError", err)
	}
	if nfe.Object != "PS1" || nfe.Class != "Acc" || nfe.Node != 0 {
		t.Errorf("typed error mislabelled: %+v", nfe)
	}
	if msg := nfe.Error(); !strings.Contains(msg, "cannot fail over PS1") || !strings.Contains(msg, "class Acc") {
		t.Errorf("NoFailoverError.Error() = %q", msg)
	}
	if !isExecuted(errors.Unwrap(nfe)) {
		t.Errorf("NoFailoverError unwraps to %v, want the node's refusal", errors.Unwrap(nfe))
	}
	if _, err := r.mw.Invoke(r.ctx, obj, "Sum", nil, false); !errors.Is(err, errPeerLost) {
		t.Errorf("call on a dead export = %v, want an immediate lost-peer failure", err)
	}
}

// TestFaultDrainWithoutCleanTargetHandsBack drains a live node whose only
// survivor is cordoned: a drain never lands on a cordoned node, so it
// reports the failure and hands the peer back to the recovery loop, which
// heals it in place — the object keeps serving, state intact. Draining a
// dead peer is a no-op.
func TestFaultDrainWithoutCleanTargetHandsBack(t *testing.T) {
	r := startFaultRig(t, 2, FaultPolicy{})
	obj := r.export(t, "PS1", 1)
	if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(1)}, false); err != nil {
		t.Fatal(err)
	}
	r.mw.SetCordon(0, true)
	if err := r.mw.Drain(1); err == nil {
		t.Fatal("drain onto a cordoned-only cluster reported success")
	}
	if _, err := r.mw.Invoke(r.ctx, obj, "Add", []any{int64(2)}, false); err != nil {
		t.Fatalf("call after an aborted drain: %v", err)
	}
	if got := r.sum(t, obj); got != 3 {
		t.Errorf("sum = %d, want 3", got)
	}
	if node, ok := r.mw.NodeOf(obj); !ok || node != 1 {
		t.Errorf("NodeOf = %v,%v, want 1 (aborted drain moved the object)", node, ok)
	}
	if err := r.mw.Join(r.ctx); err != nil {
		t.Errorf("Join: %v", err)
	}
	r.claimPeer(0, evLose)
	if err := r.mw.Drain(0); err != nil {
		t.Errorf("drain of a dead peer = %v, want nil", err)
	}
	if st := r.mw.FaultStats(); st.Drains != 0 {
		t.Errorf("Drains = %d, want 0", st.Drains)
	}
}
