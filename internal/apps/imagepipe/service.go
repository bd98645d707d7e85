package imagepipe

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aspectpar/internal/aspect"
	"aspectpar/internal/clock"
	"aspectpar/internal/exec"
	"aspectpar/internal/par"
	"aspectpar/internal/rmi"
)

// Service is the resident streaming deployment of the image pipeline: the
// filter chain stays exported on a set of rmi.Node daemons with the stage
// topology installed, and clients feed it an open-ended stream of frames.
// Each Submit is a windowed one-way ingest into stage 0; the hops between
// stages run peer-to-peer on the nodes (par.Topology), and the driver's
// only steady-state traffic is the ingest feed plus a completion poll of
// the terminal stage's ledger.
//
// Delivery is exactly-once end to end, by two idempotence layers rather
// than distributed transactions: every frame carries a stream id, the
// terminal stage's ledger delivers each id at most once, and the service
// re-ingests from the head any id that misses its retry deadline. A
// mid-stream stage crash therefore loses nothing: unacked hops strand at
// the upstream node and are redelivered after the topology heals
// (par.NetRMI.PumpTopology), anything lost inside the dead process is
// re-driven from the head, and the inner stages simply re-filter the
// duplicates the recovery creates (the filters are deterministic), which
// the ledger then absorbs.
type Service struct {
	cfg   ServiceConfig
	clk   clock.Clock
	ctx   exec.Context
	class *par.Class
	pipe  *par.Pipeline
	stack *par.Stack
	mw    *par.NetRMI
	pool  *par.Pool
	nodes []*rmi.Node // owned in-process loopback daemons

	head     any // woven pipeline handle: Submit ingests through it
	terminal any // last stage's reference: completion ledger lives there

	mu       sync.Mutex
	nextID   int64
	pending  map[int64]*pendingFrame
	ready    map[int64]Frame
	stats    ServiceStats
	errs     []error
	draining bool
	closed   bool
}

type pendingFrame struct {
	frame Frame
	since time.Time
}

// ServiceConfig configures a resident pipeline service. The zero value
// launches two in-process loopback daemons — the smallest real-TCP
// deployment — with fault tolerance off.
type ServiceConfig struct {
	// Addrs lists existing rmi.Node daemons (cmd/rminode) to deploy onto.
	// Empty launches two in-process loopback daemons instead.
	Addrs []string

	// Registry switches the service onto an elastic pool (par.DialPool):
	// membership follows the registry, and a cordoned member's hops strand,
	// redeliver and heal while the stream keeps flowing.
	Registry string

	// Faults enables the middleware's fault-tolerance subsystem; a service
	// that must survive node crashes sets Enabled (and usually Failover).
	Faults par.FaultPolicy

	// Net appends extra middleware options (codec, stream width, ...).
	Net []par.NetOption

	// Window bounds the in-flight stream: Submit blocks (pumping
	// completions) while more than Window frames are submitted but not yet
	// delivered. A batch larger than Window is admitted once nothing is
	// pending. Zero means unbounded.
	Window int

	// Clock overrides the service's time source (retry deadlines, poll
	// pacing, middleware timers). Nil keeps the wall clock.
	Clock clock.Clock
}

// ServiceStats is a snapshot of the stream's progress counters.
type ServiceStats struct {
	Submitted  int64 // frames accepted by Submit
	Completed  int64 // frames delivered from the terminal ledger
	Retried    int64 // end-to-end re-ingests after a missed deadline
	Duplicates int64 // ledger deliveries for ids already delivered (must stay 0)
	Topo       par.TopologyStats
}

const (
	ownedNodes      = 2                      // in-process daemons launched without Addrs or Registry
	retryAfter      = 250 * time.Millisecond // end-to-end retry deadline: undelivered frames re-ingest from the head
	pollEvery       = 2 * time.Millisecond   // pump cadence while waiting in Flush or a full window
	flushStallLimit = 5000                   // pump rounds without a completion before Flush reports a stall
)

// StartService deploys the filter chain and returns the resident service.
// The pipeline's stage topology is installed on the nodes at deploy time,
// so the stream's inner hops never touch the driver.
func StartService(cfg ServiceConfig) (*Service, error) {
	s := &Service{
		cfg:     cfg,
		clk:     clock.Or(cfg.Clock),
		ctx:     exec.Real(),
		pending: make(map[int64]*pendingFrame),
		ready:   make(map[int64]Frame),
	}
	if err := s.dial(); err != nil {
		s.Close()
		return nil, err
	}
	if err := s.deploy(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// dial builds the middleware: pool-backed when Registry is set, otherwise a
// static table over Addrs or freshly launched loopback daemons.
func (s *Service) dial() error {
	netOpts := append([]par.NetOption(nil), s.cfg.Net...)
	if s.cfg.Clock != nil {
		netOpts = append(netOpts, par.WithNetClock(s.cfg.Clock))
	}
	if s.cfg.Faults.Enabled {
		netOpts = append(netOpts, par.WithFaultPolicy(s.cfg.Faults))
	}
	if s.cfg.Registry != "" {
		pool, err := par.DialPool(s.cfg.Registry, par.WithPoolNet(netOpts...))
		if err != nil {
			return fmt.Errorf("imagepipe: dial pool %s: %w", s.cfg.Registry, err)
		}
		s.pool, s.mw = pool, pool.Middleware()
		// A cordon reroutes the condemned member's stages: pump immediately
		// so in-flight hops strand, redeliver and the topology heals without
		// waiting for the next client-driven poll.
		pool.OnCordon(func(exec.NodeID, string, bool) { _, _ = s.mw.PumpTopology() })
		return nil
	}
	addrs := s.cfg.Addrs
	if len(addrs) == 0 {
		for i := 0; i < ownedNodes; i++ {
			var nodeOpts []rmi.Option
			if s.cfg.Clock != nil {
				nodeOpts = append(nodeOpts, rmi.WithClock(s.cfg.Clock))
			}
			node := rmi.NewNode(exec.Real(), nodeOpts...)
			par.HostClass(node, DefineClass(par.NewDomain()))
			addr, err := node.Listen("127.0.0.1:0")
			if err != nil {
				return fmt.Errorf("imagepipe: service node %d: %w", i, err)
			}
			s.nodes = append(s.nodes, node)
			addrs = append(addrs, addr)
		}
	}
	mw, err := par.DialNet(par.NetAddressTable(addrs...), netOpts...)
	if err != nil {
		return fmt.Errorf("imagepipe: dial nodes: %w", err)
	}
	s.mw = mw
	if len(s.cfg.Addrs) > 0 {
		// Borrowed daemons may hold a previous deployment's placements.
		if err := mw.Reset(); err != nil {
			return fmt.Errorf("imagepipe: reset nodes: %w", err)
		}
	}
	return nil
}

// deploy wires the woven stack and creates the stage chain, which compiles
// and installs the par.Topology on the worker daemons.
func (s *Service) deploy() error {
	dom := par.NewDomain()
	s.class = DefineClass(dom)
	s.pipe = par.NewPipeline(par.PipelineConfig{
		Class:  s.class,
		Method: "Ingest",
		Stages: len(Kinds),
		StageArgs: func(orig []any, stage int) []any {
			return []any{Kinds[stage], stage == len(Kinds)-1}
		},
		Split: func(args []any) [][]any {
			ids := args[0].([]int64)
			frames := args[1].([]Frame)
			parts := make([][]any, len(ids))
			for i := range ids {
				parts[i] = []any{ids[i], frames[i]}
			}
			return parts
		},
		ForwardRule: "results",
	})
	var placement par.Placement
	if s.pool != nil {
		placement = s.pool.Placement()
	} else {
		placement = par.RoundRobin(0, s.mw.Nodes())
	}
	dist := par.NewDistribution(dom,
		aspect.New("Stage"), aspect.Call("Stage", "*"), s.mw, placement)
	if err := s.pipe.UseTopology(s.mw); err != nil {
		return err
	}
	s.stack = par.NewStack(dom, s.pipe, dist)
	head, err := s.class.New(s.ctx, Kinds[0], false)
	if err != nil {
		return fmt.Errorf("imagepipe: deploying stage chain: %w", err)
	}
	s.head = head
	stages := s.pipe.Managed()
	s.terminal = stages[len(stages)-1]
	return nil
}

// Submit feeds frames into the stream and returns their assigned ids.
// Results arrive asynchronously: Take drains them, Flush waits for them.
// With a Window configured, Submit blocks pumping completions until the
// stream has room — the client-side half of the backpressure chain whose
// node-side half is the ack-clocked hop windows. A batch larger than the
// whole Window waits until nothing is pending and then goes in at once.
func (s *Service) Submit(frames []Frame) ([]int64, error) {
	if len(frames) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, errors.New("imagepipe: service is draining")
	}
	s.mu.Unlock()
	if s.cfg.Window > 0 {
		for {
			s.mu.Lock()
			room := len(s.pending) == 0 || len(s.pending)+len(frames) <= s.cfg.Window
			s.mu.Unlock()
			if room {
				break
			}
			if err := s.pump(); err != nil {
				return nil, err
			}
			s.clk.Sleep(pollEvery)
		}
	}
	s.mu.Lock()
	ids := make([]int64, len(frames))
	now := s.clk.Now()
	for i, f := range frames {
		ids[i] = s.nextID
		s.nextID++
		s.pending[ids[i]] = &pendingFrame{frame: f, since: now}
	}
	s.stats.Submitted += int64(len(frames))
	s.mu.Unlock()
	if err := s.ingest(ids, frames); err != nil {
		return ids, err
	}
	return ids, nil
}

// ingest drives one batch through the woven head call. Under a fault
// policy, transport errors are recorded rather than returned: the journal
// replay and the end-to-end retry own recovery.
func (s *Service) ingest(ids []int64, frames []Frame) error {
	_, err := s.class.Call(s.ctx, s.head, "Ingest", ids, frames)
	if err != nil {
		if !s.cfg.Faults.Enabled {
			return fmt.Errorf("imagepipe: ingest: %w", err)
		}
		s.record(err)
	}
	return nil
}

// pump runs one service cycle: heal and redeliver through the topology
// control plane, drain the terminal ledger, and re-ingest anything past its
// retry deadline.
func (s *Service) pump() error {
	if _, err := s.mw.PumpTopology(); err != nil {
		if !s.cfg.Faults.Enabled {
			return err
		}
		s.record(err)
	}
	marks := map[string]any{par.MarkInternal: true, par.MarkNoAsync: true}
	res, err := s.class.CallMarked(s.ctx, marks, s.terminal, "TakeDone", s.floor())
	if err != nil {
		if !s.cfg.Faults.Enabled {
			return fmt.Errorf("imagepipe: polling completions: %w", err)
		}
		s.record(err)
		return nil
	}
	ids := res[0].([]int64)
	frames := res[1].([]Frame)
	var retryIDs []int64
	var retryFrames []Frame
	s.mu.Lock()
	for i, id := range ids {
		if _, ok := s.pending[id]; ok {
			delete(s.pending, id)
			s.ready[id] = frames[i]
			s.stats.Completed++
		} else {
			s.stats.Duplicates++
		}
	}
	now := s.clk.Now()
	for id, p := range s.pending {
		if now.Sub(p.since) >= retryAfter {
			p.since = now
			retryIDs = append(retryIDs, id)
			retryFrames = append(retryFrames, p.frame)
		}
	}
	s.stats.Retried += int64(len(retryIDs))
	s.mu.Unlock()
	if len(retryIDs) > 0 {
		return s.ingest(retryIDs, retryFrames)
	}
	return nil
}

// floor is the delivered floor the terminal ledger may forget below: the
// lowest pending id, or the next id to assign when nothing is pending. Ids
// are assigned in order and leave pending only on delivery, so every id
// below it was delivered.
func (s *Service) floor() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	floor := s.nextID
	for id := range s.pending {
		floor = min(floor, id)
	}
	return floor
}

// Flush pumps until every submitted frame has been delivered — the
// graceful-drain barrier. It returns a stall error if the stream stops
// making progress entirely (recorded transport errors attached).
func (s *Service) Flush() error {
	stall := 0
	for {
		s.mu.Lock()
		outstanding := len(s.pending)
		before := s.stats.Completed
		s.mu.Unlock()
		if outstanding == 0 {
			return nil
		}
		if err := s.pump(); err != nil {
			return err
		}
		s.mu.Lock()
		progressed := s.stats.Completed > before
		s.mu.Unlock()
		if progressed {
			stall = 0
		} else if stall++; stall > flushStallLimit {
			s.mu.Lock()
			errs := append([]error(nil), s.errs...)
			s.mu.Unlock()
			return fmt.Errorf("imagepipe: stream stalled with %d frames outstanding: %w",
				outstanding, errors.Join(errs...))
		}
		s.clk.Sleep(pollEvery)
	}
}

// Take drains the delivered results accumulated since the last Take, keyed
// by stream id.
func (s *Service) Take() map[int64]Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ready
	s.ready = make(map[int64]Frame)
	return out
}

// Drain stops accepting new frames, flushes the outstanding stream and
// returns everything not yet taken — the cordon/shutdown path.
func (s *Service) Drain() (map[int64]Frame, error) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	err := s.Flush()
	return s.Take(), err
}

// Stats snapshots the stream counters, including the topology control
// plane's (installs, peer-forwarded hops, strands, redeliveries).
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Topo = s.mw.TopologyStats()
	return st
}

// Err drains transport errors recorded while a fault policy let the stream
// keep flowing.
func (s *Service) Err() error {
	s.mu.Lock()
	errs := s.errs
	s.errs = nil
	s.mu.Unlock()
	return errors.Join(errs...)
}

func (s *Service) record(err error) {
	s.mu.Lock()
	if len(s.errs) < 64 {
		s.errs = append(s.errs, err)
	}
	s.mu.Unlock()
}

// Close tears the service down: the middleware (or pool), then any owned
// in-process daemons. Outstanding frames are abandoned; call Drain first
// for a graceful stop.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.pool != nil {
		s.pool.Close()
	} else if s.mw != nil {
		s.mw.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}
