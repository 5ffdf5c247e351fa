// Package packetsim is a packet-level simulator of the BG/Q torus
// network, complementing the flow-level model in package netsim. It
// models what the paper's Section III describes at the hardware level:
// messages are split into packets (up to 512 bytes of user data plus a
// 32-byte header), the Messaging Unit injects packets into per-link
// injection FIFOs, every directed link serves its output queue at the
// wire rate, and packets advance hop by hop under dimension-ordered
// (optionally zone-randomized) routing with per-hop router latency.
//
// The packet simulator is orders of magnitude more expensive than the
// flow-level one, so the experiments use netsim; packetsim's role is
// validation — the cross-checks in this package's tests and the
// flow-vs-packet comparison in internal/experiments show the two models
// agree on throughput to within a few percent on the microbenchmark
// geometries, which is the evidence that the cheaper model is trustworthy
// at scale.
//
// Buffers are unbounded (the BG/Q's link-level flow control rarely backs
// up under the bulk-transfer patterns studied here), and arbitration at
// each output link is FIFO.
package packetsim

import (
	"fmt"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// The BG/Q Messaging Unit's packet format, and a guard against
// accidentally enormous simulations.
const (
	payloadBytes = 512 // user data per packet
	headerBytes  = 32  // per-packet header
	maxPackets   = 8 << 20
)

// MessageID identifies a submitted message.
type MessageID int

// MessageSpec describes one message.
type MessageSpec struct {
	Src, Dst torus.NodeID
	Bytes    int64
	// Zone selects the routing zone; the deterministic zone is the
	// default. Zones 0 and 1 randomize the dimension order per packet,
	// which is the hardware's own way of spreading load.
	Zone routing.Zone
	// Links, when non-nil, fixes the route of every packet explicitly
	// (used for proxy legs planned in user space).
	Links []int
	// DependsOn lists messages that must be fully delivered before this
	// message is injected (store-and-forward legs).
	DependsOn []MessageID
	// ExtraDelay is charged at release, like netsim's.
	ExtraDelay sim.Duration
}

// MessageResult reports message timing.
type MessageResult struct {
	Released  sim.Time
	Injected  sim.Time // first packet handed to the MU
	Delivered sim.Time // last packet stored at the receiver
	Done      bool
}

type packet struct {
	msg   *message
	route []int // remaining links
	last  bool
}

type message struct {
	id         MessageID
	spec       MessageSpec
	unmetDeps  int
	dependents []MessageID
	remaining  int // packets in flight or queued
	res        MessageResult
	released   bool
	done       bool
}

type link struct {
	queue   []packet
	serving bool
	bytes   float64 // payload bytes carried
}

// Sim is a packet-level simulation run. Submit messages, then Run once.
// It models the BG/Q torus only: packets, injection FIFOs and routing
// zones are torus hardware constructs.
type Sim struct {
	tor    *torus.Torus
	p      netsim.Params
	clock  *sim.Engine
	msgs   []*message
	links  []link
	active int
	ran    bool
	seed   int64

	packetsBudget int
}

// New creates a packet simulation over tor under the flow model's
// calibration p: LinkBandwidth is the wire rate of payload plus header
// (so one link carries 1.8e9 * 512/544 ≈ 1.69 GB/s of payload under
// netsim.DefaultParams, the single-path peak the flow model expresses
// with its per-flow cap), and HopLatency, SenderOverhead and
// ReceiverOverhead are charged as netsim charges them. zoneSeed feeds
// the zone router.
func New(tor *torus.Torus, p netsim.Params, zoneSeed int64) (*Sim, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Sim{
		tor:           tor,
		p:             p,
		clock:         sim.NewEngine(),
		links:         make([]link, tor.NumTorusLinks()),
		seed:          zoneSeed,
		packetsBudget: maxPackets,
	}, nil
}

// Submit registers a message; dependencies must already be submitted.
func (s *Sim) Submit(spec MessageSpec) MessageID {
	if s.ran {
		panic("packetsim: Submit after Run")
	}
	if spec.Bytes < 0 {
		panic("packetsim: negative message size")
	}
	id := MessageID(len(s.msgs))
	m := &message{id: id, spec: spec}
	for _, dep := range spec.DependsOn {
		if int(dep) < 0 || int(dep) >= len(s.msgs) {
			panic(fmt.Sprintf("packetsim: message %d depends on unknown %d", id, dep))
		}
		s.msgs[dep].dependents = append(s.msgs[dep].dependents, id)
		m.unmetDeps++
	}
	s.msgs = append(s.msgs, m)
	s.active++
	return id
}

// Run executes all messages and returns the makespan.
func (s *Sim) Run() (sim.Duration, error) {
	if s.ran {
		panic("packetsim: Run called twice")
	}
	s.ran = true
	for _, m := range s.msgs {
		if m.unmetDeps == 0 {
			s.release(m)
		}
	}
	end := s.clock.Run()
	if s.active > 0 {
		return 0, fmt.Errorf("packetsim: %d messages never delivered", s.active)
	}
	return sim.Duration(end), nil
}

// Result returns a message's timing after Run.
func (s *Sim) Result(id MessageID) MessageResult { return s.msgs[id].res }

// LinkPayloadBytes returns the payload bytes carried by a link.
func (s *Sim) LinkPayloadBytes(l int) float64 { return s.links[l].bytes }

func (s *Sim) release(m *message) {
	m.released = true
	m.res.Released = s.clock.Now()
	s.clock.After(s.p.SenderOverhead+m.spec.ExtraDelay, func(*sim.Engine) { s.inject(m) })
}

// inject splits the message into packets and enqueues them on their
// first links. Per-packet routes are computed here, so zone-randomized
// routing spreads packets of one message over several paths.
func (s *Sim) inject(m *message) {
	m.res.Injected = s.clock.Now()
	if m.spec.Bytes == 0 || (m.spec.Src == m.spec.Dst && m.spec.Links == nil) {
		s.deliver(m)
		return
	}
	nPackets := int((m.spec.Bytes + payloadBytes - 1) / payloadBytes)
	s.packetsBudget -= nPackets
	if s.packetsBudget < 0 {
		panic("packetsim: packet budget exhausted")
	}
	var router *routing.Router
	if m.spec.Links == nil {
		r, err := routing.NewRouter(s.tor, m.spec.Zone, s.seed+int64(m.id)*7919+13)
		if err != nil {
			panic(err)
		}
		router = r
	}
	m.remaining = nPackets
	for i := 0; i < nPackets; i++ {
		route := m.spec.Links
		if router != nil {
			route = router.Route(m.spec.Src, m.spec.Dst).Links
		}
		if len(route) == 0 {
			// Node-local packet: deliver immediately.
			s.packetStored(m)
			continue
		}
		s.enqueue(route[0], packet{msg: m, route: route, last: i == nPackets-1})
	}
}

// enqueue puts a packet on a link's output queue and starts service if
// the link is idle.
func (s *Sim) enqueue(l int, pk packet) {
	lk := &s.links[l]
	lk.queue = append(lk.queue, pk)
	if !lk.serving {
		s.serve(l)
	}
}

// serve transmits the head packet of a link queue.
func (s *Sim) serve(l int) {
	lk := &s.links[l]
	if len(lk.queue) == 0 {
		lk.serving = false
		return
	}
	lk.serving = true
	pk := lk.queue[0]
	lk.queue = lk.queue[1:]
	payload := s.payloadOf(pk)
	lk.bytes += float64(payload)
	s.clock.After(s.packetTime(payload), func(*sim.Engine) {
		// Head-of-line done: the link can start the next packet while
		// this one finishes its hop latency.
		s.clock.After(s.p.HopLatency, func(*sim.Engine) { s.arrive(pk) })
		s.serve(l)
	})
}

// packetTime is the wire occupancy of one packet carrying payload bytes.
func (s *Sim) packetTime(payload int) sim.Duration {
	return sim.Duration(float64(payload+headerBytes) / s.p.LinkBandwidth)
}

// payloadOf sizes a packet: all packets are full except possibly the
// message's last.
func (s *Sim) payloadOf(pk packet) int {
	if !pk.last {
		return payloadBytes
	}
	rem := int(pk.msg.spec.Bytes % payloadBytes)
	if rem == 0 {
		return payloadBytes
	}
	return rem
}

// arrive advances a packet one hop.
func (s *Sim) arrive(pk packet) {
	pk.route = pk.route[1:]
	if len(pk.route) == 0 {
		s.packetStored(pk.msg)
		return
	}
	s.enqueue(pk.route[0], pk)
}

// packetStored counts a delivered packet; the message completes when all
// its packets are stored and the receiver overhead is paid.
func (s *Sim) packetStored(m *message) {
	m.remaining--
	if m.remaining > 0 {
		return
	}
	s.clock.After(s.p.ReceiverOverhead, func(*sim.Engine) { s.deliver(m) })
}

func (s *Sim) deliver(m *message) {
	if m.done {
		return
	}
	m.done = true
	m.res.Delivered = s.clock.Now()
	m.res.Done = true
	s.active--
	for _, dep := range m.dependents {
		d := s.msgs[dep]
		d.unmetDeps--
		if d.unmetDeps == 0 && !d.released {
			s.release(d)
		}
	}
}
