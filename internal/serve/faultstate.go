package serve

import (
	"math"
	"sort"

	"bgqflow/internal/cluster"
	"bgqflow/internal/netsim"
	"bgqflow/internal/scenario"
	"bgqflow/internal/torus"
)

// Link-scoped invalidation (DESIGN.md §12). A request plans against one
// immutable faultSnapshot; a fault event publishes the next snapshot,
// stamping only the links whose failed state it changed; and a cached
// plan remembers which links' failed state its computation read. A plan
// computed under one snapshot is servable under another when none of
// the links it read changed between them.

// faultSnapshot is one published fault state: the epoch, the effective
// fault set and the fault-epoch vector a request plans against, read
// together with one atomic load. Nothing in a snapshot is mutated after
// it is published.
type faultSnapshot struct {
	epoch  uint64
	faults []scenario.FailLink // cap == len: an append never writes into a shared array
	vec    cluster.Vector
	vecStr string // vec.String(), rendered once at publish
	// stamps maps the key (faultKey) of every link any event has
	// changed to the epoch of the latest event that changed it. Shared
	// by snapshots until an event changes a link, then copied.
	stamps map[uint32]uint64
	// lowNode[d] is the lowest node with a failed link in dimension d
	// (math.MaxInt when none): a torus of size nodes and dims dimensions
	// has an applicable fault iff lowNode[d] < size for some d < dims.
	lowNode [torus.MaxDims]int
}

// maxKeyedNodes bounds the node IDs a link key can name (28 bits, with
// 3 bits of dimension and 1 of direction). A plan on a larger torus
// records no read set (planReads.watch), so a fault beyond the bound
// applies to no plan that keeps one.
const maxKeyedNodes = 1 << 28

// linkKey packs a directed torus link into the geometry-independent key
// the stamps and read sets use: the (node, dimension, direction) triple
// a fault event names. Keys sort in torus.LinkID order on any torus.
func linkKey(node, dim int, minus bool) uint32 {
	k := uint32(node)<<4 | uint32(dim)<<1
	if minus {
		k |= 1
	}
	return k
}

// faultKey returns the key of a fault event link; ok is false for a
// link no buildable torus has, which no plan can read.
func faultKey(fl scenario.FailLink) (uint32, bool) {
	if fl.Node < 0 || fl.Node >= maxKeyedNodes || fl.Dim < 0 || fl.Dim >= torus.MaxDims || (fl.Dir != 1 && fl.Dir != -1) {
		return 0, false
	}
	return linkKey(fl.Node, fl.Dim, fl.Dir == -1), true
}

// faultKeys returns the sorted, duplicate-free keys of a fault set.
func faultKeys(faults []scenario.FailLink) []uint32 {
	keys := make([]uint32, 0, len(faults))
	for _, fl := range faults {
		if k, ok := faultKey(fl); ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// diffFaults returns the sorted keys of the links whose failed state
// differs between fault sets a and b: the symmetric difference of the
// two sets, so diffFaults(a, b) == diffFaults(b, a), and it is empty
// when a and b hold the same links in any order or multiplicity.
func diffFaults(a, b []scenario.FailLink) []uint32 {
	ka, kb := faultKeys(a), faultKeys(b)
	var out []uint32
	i, j := 0, 0
	for i < len(ka) || j < len(kb) {
		switch {
		case j == len(kb) || i < len(ka) && ka[i] < kb[j]:
			out = append(out, ka[i])
			i++
		case i == len(ka) || kb[j] < ka[i]:
			out = append(out, kb[j])
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// nextSnapshot derives the snapshot that follows cur when the fault set
// becomes faults and the vector vec: the epoch advances by one, and
// every link whose failed state differs from cur is stamped with it.
func nextSnapshot(cur *faultSnapshot, faults []scenario.FailLink, vec cluster.Vector) *faultSnapshot {
	next := &faultSnapshot{
		epoch:  cur.epoch + 1,
		faults: faults[:len(faults):len(faults)],
		vec:    vec,
		vecStr: vec.String(),
		stamps: cur.stamps,
	}
	if changed := diffFaults(cur.faults, faults); len(changed) > 0 {
		next.stamps = make(map[uint32]uint64, len(cur.stamps)+len(changed))
		for k, ep := range cur.stamps {
			next.stamps[k] = ep
		}
		for _, k := range changed {
			next.stamps[k] = next.epoch
		}
	}
	next.lowNode = lowestFaulted(faults)
	return next
}

// lowestFaulted builds a snapshot's lowNode table.
func lowestFaulted(faults []scenario.FailLink) [torus.MaxDims]int {
	var low [torus.MaxDims]int
	for d := range low {
		low[d] = math.MaxInt
	}
	for _, fl := range faults {
		if _, ok := faultKey(fl); ok && fl.Node < low[fl.Dim] {
			low[fl.Dim] = fl.Node
		}
	}
	return low
}

// anyApplicable reports whether the snapshot fails any link of a torus
// with the given node count and dimensionality — the answer the torus's
// network gives to HasFailures once applicableFaults are failed on it.
func (s *faultSnapshot) anyApplicable(size, dims int) bool {
	for d := 0; d < dims && d < len(s.lowNode); d++ {
		if s.lowNode[d] < size {
			return true
		}
	}
	return false
}

// changedSince reports whether any link in keys changed after epoch lo.
// s must be at least as new as every snapshot whose changes matter.
func (s *faultSnapshot) changedSince(keys []uint32, lo uint64) bool {
	for _, k := range keys {
		if s.stamps[k] > lo {
			return true
		}
	}
	return false
}

// readSet is the fault state one plan computation read, in the form its
// cache entry keeps: sorted link keys, plus the emptiness read.
type readSet struct {
	links []uint32
	// askedAny: the computation asked HasFailures of a torus with size
	// nodes and dims dimensions, and was told anyFailed.
	askedAny   bool
	anyFailed  bool
	size, dims int
}

// planReads collects what a plan computation reads of the fault state.
// A Compute function calls watch on the network it builds from the
// fault set; a computation that never calls watch records no read set,
// and its plan is invalidated by every fault event. Nil-safe: the
// exported Compute functions pass nil and record nothing.
type planReads struct {
	watched bool
	tor     *torus.Torus // nil: a fabric no fault event names
	net     netsim.FaultReads
}

// watch starts recording the network's fault reads. tor is the torus the
// network is built on, or nil for a non-torus fabric.
func (p *planReads) watch(tor *torus.Torus, net *netsim.Network) {
	if p == nil || tor != nil && tor.Size() > maxKeyedNodes {
		return // keys cannot name this torus's links: record no read set
	}
	p.watched = true
	if tor != nil {
		p.tor = tor
		net.RecordFaultReads(&p.net)
	}
}

// readSet converts the recorded reads into the entry form; snap is the
// snapshot the computation planned against. It returns nil when the
// computation recorded nothing.
func (p *planReads) readSet(snap *faultSnapshot) *readSet {
	if !p.watched {
		return nil
	}
	rs := &readSet{}
	if p.tor == nil {
		return rs
	}
	torusLinks := p.tor.NumTorusLinks()
	rs.links = make([]uint32, 0, p.net.NumLinks())
	p.net.ForEachLink(func(id int) {
		if id >= torusLinks {
			return // an extra link (a bridge's 11th link): no fault event names it
		}
		from, dim, dir := p.tor.LinkFrom(id)
		rs.links = append(rs.links, linkKey(int(from), dim, dir == torus.Minus))
	})
	if p.net.AskedHasFailures() {
		rs.askedAny = true
		rs.size, rs.dims = p.tor.Size(), p.tor.Dims()
		rs.anyFailed = snap.anyApplicable(rs.size, rs.dims)
	}
	return rs
}
