package netsim

import (
	"fmt"
	"math/bits"
	"sync"

	"bgqflow/internal/routing"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// Network is the set of capacity-limited directed links flows run over:
// the base-fabric links of a partition plus any registered extra links
// (such as the 11th links from bridge nodes to I/O nodes).
//
// Link IDs are dense integers: IDs below NumTorusLinks() are base-fabric
// links (torus.LinkID order on a torus, the topology's own dense order
// otherwise); IDs at or above it are extra links in order of
// registration.
//
// A network built with NewNetwork is torus-backed: Torus() is non-nil and
// the epoch-invalidated routing.Cache serves routes. A network built with
// NewNetworkTopo over a non-torus topology has a nil Torus(); routes come
// from the topology's pure route oracle through a lazily filled map
// (generic routes ignore failures exactly like DeterministicRoute, so no
// invalidation is needed — see DESIGN.md §16).
type Network struct {
	t          *torus.Torus // nil when the fabric is not a torus
	tp         topo.Topology
	capacity   []float64
	failed     []bool
	numFailed  int // links marked in failed; HasFailures is O(1)
	nodeFailed []bool
	reads      *FaultReads            // nil unless a computation records its fault reads
	names      map[int]string         // extra-link names for diagnostics
	extraFrom  map[torus.NodeID][]int // node -> extra links it owns (AddLinkFrom)
	routes     *routing.Cache         // torus-backed networks only

	topoMu     sync.RWMutex    // guards topoRoutes (non-torus networks)
	topoRoutes map[int64][]int // (src<<32|dst) -> cached route links
}

// NewNetwork builds the link table for torus t with per-direction torus
// link capacity linkBandwidth (bytes/second).
func NewNetwork(t *torus.Torus, linkBandwidth float64) *Network {
	n := &Network{
		t:        t,
		tp:       topo.NewTorus(t),
		capacity: make([]float64, t.NumTorusLinks()),
		names:    make(map[int]string),
		routes:   routing.NewCache(t),
	}
	for i := range n.capacity {
		n.capacity[i] = linkBandwidth
	}
	return n
}

// NewNetworkTopo builds the link table for an arbitrary topology. Each
// base link's capacity is linkBandwidth times the topology's rail
// multiplier. A torus topology delegates to NewNetwork, so torus-backed
// behavior (route cache, fault epochs) is identical either way.
func NewNetworkTopo(tp topo.Topology, linkBandwidth float64) *Network {
	if tt, ok := tp.(*topo.TorusTopo); ok {
		return NewNetwork(tt.Torus(), linkBandwidth)
	}
	n := &Network{
		tp:         tp,
		capacity:   make([]float64, tp.NumLinks()),
		names:      make(map[int]string),
		topoRoutes: make(map[int64][]int),
	}
	for i := range n.capacity {
		n.capacity[i] = linkBandwidth * tp.LinkCapacity(i)
	}
	return n
}

// Torus returns the underlying torus, or nil when the network was built
// over a non-torus topology (NewNetworkTopo). Torus-specific layers
// (ionet, zone routing, torus-shaped fault campaigns) must check.
func (n *Network) Torus() *torus.Torus { return n.t }

// Topology returns the fabric behind the network; never nil.
func (n *Network) Topology() topo.Topology { return n.tp }

// NumNodes reports the number of addressable endpoints.
func (n *Network) NumNodes() int { return n.tp.NumNodes() }

// NumLinks returns the total number of links, torus plus extra.
func (n *Network) NumLinks() int { return len(n.capacity) }

// NumTorusLinks returns the number of base-fabric links (extra links have
// IDs at or beyond this value). The name is historical: on a torus these
// are exactly the torus links.
func (n *Network) NumTorusLinks() int { return n.tp.NumLinks() }

// AddLink registers an extra link with the given capacity and returns its
// ID. The name labels the link in diagnostics.
func (n *Network) AddLink(name string, capacity float64) int {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: extra link %q has capacity %g", name, capacity))
	}
	id := len(n.capacity)
	n.capacity = append(n.capacity, capacity)
	n.names[id] = name
	return id
}

// AddLinkFrom registers an extra link owned by a torus node (e.g. a
// bridge node's 11th link). Node-failure injection (FailNode) fails the
// owner's extra links along with its torus links.
func (n *Network) AddLinkFrom(name string, from torus.NodeID, capacity float64) int {
	id := n.AddLink(name, capacity)
	if n.extraFrom == nil {
		n.extraFrom = make(map[torus.NodeID][]int)
	}
	n.extraFrom[from] = append(n.extraFrom[from], id)
	return id
}

// Capacity returns the capacity of link id in bytes/second.
func (n *Network) Capacity(id int) float64 { return n.capacity[id] }

// Route returns the default deterministic route between two torus nodes,
// served from the network's route cache while the network is failure-free.
// The returned Route shares a cached Links slice; treat it as read-only.
func (n *Network) Route(src, dst torus.NodeID) routing.Route {
	if n.routes != nil {
		return n.routes.Route(src, dst)
	}
	key := int64(src)<<32 | int64(uint32(dst))
	n.topoMu.RLock()
	links, ok := n.topoRoutes[key]
	n.topoMu.RUnlock()
	if !ok {
		links = n.tp.Route(src, dst)
		n.topoMu.Lock()
		n.topoRoutes[key] = links
		n.topoMu.Unlock()
	}
	return routing.Route{Src: src, Dst: dst, Links: links}
}

// RouteCache exposes the network's route cache for instrumentation.
func (n *Network) RouteCache() *routing.Cache { return n.routes }

// FailLink marks a link failed. Flows submitted over failed links are
// rejected (fail-stop): fault handling belongs to the planning layer,
// which routes around failures with routing.RouteAvoiding, and to the
// engine's abort machinery for flows already in flight (FailLinkAt). The
// route cache absorbs one invalidation per failure event (see DESIGN.md
// §8): every event purges the memoized routes and bumps the failure
// epoch, so no pre-failure entry survives, while post-failure lookups
// repopulate the cache — long campaigns keep the hot path.
func (n *Network) FailLink(id int) {
	if n.failed == nil {
		n.failed = make([]bool, len(n.capacity))
	}
	n.markFailed(id)
	if n.routes != nil {
		n.routes.Invalidate()
	}
}

// markFailed sets one link's failed flag, counting it only the first
// time so a link failed twice (or by FailNode after FailLink) is one
// failure.
func (n *Network) markFailed(id int) {
	if !n.failed[id] {
		n.failed[id] = true
		n.numFailed++
	}
}

// LinkFailed reports whether a link is marked failed. The read is
// recorded when a FaultReads is attached (RecordFaultReads).
func (n *Network) LinkFailed(id int) bool {
	if n.reads != nil {
		n.reads.addLink(id)
	}
	return n.failed != nil && id < len(n.failed) && n.failed[id]
}

// NodeLinks returns every link touching a node: its outgoing and incoming
// directed torus links (the BG/Q's 10 links, both directions) plus any
// extra links registered from it with AddLinkFrom (a bridge's 11th link).
func (n *Network) NodeLinks(id torus.NodeID) []int {
	base := n.tp.NodeLinks(id)
	extra := n.extraFrom[id]
	links := make([]int, 0, len(base)+len(extra))
	seen := make(map[int]struct{}, len(base)+len(extra))
	add := func(l int) {
		if _, dup := seen[l]; !dup {
			seen[l] = struct{}{}
			links = append(links, l)
		}
	}
	for _, l := range base {
		add(l)
	}
	for _, l := range extra {
		add(l)
	}
	return links
}

// FailNode marks a node failed: every torus link into or out of it fails,
// along with its registered extra links, so no route can traverse it. The
// route cache absorbs a single invalidation for the whole event.
func (n *Network) FailNode(id torus.NodeID) {
	if n.nodeFailed == nil {
		n.nodeFailed = make([]bool, n.tp.NumNodes())
	}
	n.nodeFailed[id] = true
	if n.failed == nil {
		n.failed = make([]bool, len(n.capacity))
	}
	for _, l := range n.NodeLinks(id) {
		n.markFailed(l)
	}
	if n.routes != nil {
		n.routes.Invalidate()
	}
}

// NodeFailed reports whether a node is marked failed.
func (n *Network) NodeFailed(id torus.NodeID) bool {
	return n.nodeFailed != nil && n.nodeFailed[id]
}

// HasFailures reports whether any link is failed. The read is recorded
// when a FaultReads is attached (RecordFaultReads).
func (n *Network) HasFailures() bool {
	if n.reads != nil {
		n.reads.askedAny = true
	}
	return n.numFailed > 0
}

// RecordFaultReads attaches r to the network: from now on every
// LinkFailed call marks its link in r and every HasFailures call marks
// the emptiness read, so a caller can tell which parts of the fault
// state a computation depended on. Nil detaches. Recording is not safe
// for concurrent use: a recording network belongs to one goroutine.
func (n *Network) RecordFaultReads(r *FaultReads) { n.reads = r }

// FaultReads is the part of a network's fault state a computation read:
// the links whose failed flag it queried (LinkFailed, which FailedFunc
// and the engine's fail-stop check call) and whether it asked
// HasFailures. NodeFailed is not recorded; only FailNode changes it.
// The zero value is empty and ready to use.
type FaultReads struct {
	bits     []uint64 // bit l set: LinkFailed(l) was called
	askedAny bool
}

func (r *FaultReads) addLink(id int) {
	w := id >> 6
	if w >= len(r.bits) {
		r.bits = append(r.bits, make([]uint64, w+1-len(r.bits))...)
	}
	r.bits[w] |= 1 << (uint(id) & 63)
}

// AskedHasFailures reports whether the computation asked HasFailures.
func (r *FaultReads) AskedHasFailures() bool { return r.askedAny }

// NumLinks reports how many distinct links were read.
func (r *FaultReads) NumLinks() int {
	n := 0
	for _, w := range r.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEachLink calls fn with every link read, in ascending ID order.
func (r *FaultReads) ForEachLink(fn func(id int)) {
	for i, w := range r.bits {
		for w != 0 {
			fn(i<<6 | bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// FailedFunc returns a predicate suitable for routing.RouteAvoiding.
func (n *Network) FailedFunc() func(int) bool {
	return n.LinkFailed
}

// LinkName renders a link for diagnostics.
func (n *Network) LinkName(id int) string {
	if id < n.tp.NumLinks() {
		return n.tp.LinkString(id)
	}
	if name, ok := n.names[id]; ok {
		return name
	}
	return fmt.Sprintf("extra-link-%d", id)
}
