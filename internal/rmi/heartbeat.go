package rmi

import (
	"time"
)

// This file is the node side of the membership control plane (registry.go
// holds the registry side): a server configured with WithRegistry announces
// itself when it starts listening, beats on its clock seam while alive
// (WithHeartbeat), and deregisters on graceful shutdown. An aborted server
// sends nothing — silent death is exactly what the registry's missed-beat
// health check exists to catch.
//
// The loop waits on clock.After, never on the wall, so a virtual-clock
// server's beats are driven by the test's clock pump like every other
// scheduled event — heartbeat liveness becomes a deterministic function of
// advanced virtual time.

// DefaultHeartbeatInterval is the beat interval used when WithRegistry is
// set but WithHeartbeat is not.
const DefaultHeartbeatInterval = 200 * time.Millisecond

// heartbeatConfig is the membership configuration fixed at construction.
type heartbeatConfig struct {
	registry  string        // registry address; "" disables membership
	interval  time.Duration // beat interval; ≤0 selects the default
	advertise string        // announced address; "" announces the bound one
}

// startHeartbeat launches the registration/heartbeat loop once the server
// knows its bound address, and returns once the first RegRegister has been
// answered (or failed), so a server whose Listen returned is already a
// member a pool refresh can see. The wait is bounded by the default
// registry dial timeout (ReconnectPolicy.DialTimeout's default), so a
// registry that accepts but never answers cannot hang Listen; it runs on
// the wall clock for the same reason, since a virtual clock may never be
// advanced. No-op without a registry configured.
func (s *Server) startHeartbeat(bound string) {
	if s.hb.registry == "" {
		return
	}
	addr := s.hb.advertise
	if addr == "" {
		addr = bound
	}
	interval := s.hb.interval
	if interval <= 0 {
		interval = DefaultHeartbeatInterval
	}
	s.mu.Lock()
	if s.closed || s.hbStop != nil {
		s.mu.Unlock()
		return
	}
	s.hbStop = make(chan struct{})
	s.hbDone = make(chan struct{})
	stop, done := s.hbStop, s.hbDone
	s.mu.Unlock()
	registered := make(chan struct{})
	go s.heartbeatLoop(addr, interval, stop, done, registered)
	limit := time.NewTimer(ReconnectPolicy{}.WithDefaults().DialTimeout)
	defer limit.Stop()
	select {
	case <-registered:
	case <-limit.C:
	}
}

// stopHeartbeat ends the loop; graceful shutdowns deregister first. It
// waits for the loop to exit, so Close returning means the registry side
// was told (or could not be reached — best effort, never a hang: the loop's
// stop wake-up does not depend on the clock).
func (s *Server) stopHeartbeat(graceful bool) {
	s.mu.Lock()
	stop, done := s.hbStop, s.hbDone
	s.hbStop = nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	if graceful {
		s.hbDeregister.Store(true)
	}
	close(stop)
	<-done
}

// heartbeatLoop registers, beats every interval, and deregisters on a
// graceful stop. Registry trouble is absorbed: the connection is re-dialled
// on the next beat, and RegHeartbeat upserts, so a restarted registry
// relearns the membership from the surviving nodes' beats.
func (s *Server) heartbeatLoop(addr string, interval time.Duration, stop <-chan struct{}, done, registered chan<- struct{}) {
	defer close(done)
	var cli *Client
	var reg *Stub
	defer func() {
		if cli != nil {
			cli.Close()
		}
	}()
	ensure := func() bool {
		if reg != nil {
			return true
		}
		c, err := Dial(s.hb.registry, WithClock(s.clk))
		if err != nil {
			return false
		}
		st, err := c.Lookup(RegistryName)
		if err != nil {
			c.Close()
			return false
		}
		cli, reg = c, st
		return true
	}
	beat := func(verb string) {
		if s.partitioned.Load() {
			// A partitioned node is cut off in both directions: its beats
			// do not cross the wire, so the registry sees it go unhealthy —
			// the flap/cordon schedule the chaos harness scripts.
			return
		}
		if !ensure() {
			return
		}
		if _, err := reg.Invoke(verb, addr, s.Epoch(), int64(interval)); err != nil {
			cli.Close()
			cli, reg = nil, nil
		}
	}
	beat(RegRegister)
	close(registered)
	for {
		select {
		case <-stop:
			if s.hbDeregister.Load() && !s.partitioned.Load() && ensure() {
				reg.Invoke(RegDeregister, addr)
			}
			return
		case <-s.clk.After(interval):
			beat(RegHeartbeat)
		}
	}
}
