// Package ionet models the Blue Gene/Q I/O subsystem on top of a netsim
// network: psets (groups of 128 compute nodes), bridge nodes (two per
// pset), and the 11th links from bridge nodes to I/O nodes.
//
// I/O traffic on the BG/Q is routed deterministically from a compute node
// to its statically assigned default bridge node over the torus, then over
// that bridge's 11th link to the I/O node. The paper's I/O benchmarks
// write to /dev/null, so the I/O path ends at the I/O node; all contention
// of interest is on the torus legs and the 11th links, which is what this
// package models.
package ionet

import (
	"fmt"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// The BG/Q I/O geometry.
const (
	// PsetSize is the number of compute nodes per pset.
	PsetSize = 128
	// BridgesPerPset is the number of bridge nodes per pset.
	BridgesPerPset = 2
	// IONLinkBandwidth is the capacity of each 11th link, bytes/second.
	IONLinkBandwidth = 1.8e9
)

// Pset is one I/O grouping: a rectangular box of compute nodes, its bridge
// nodes, and the I/O node they uplink to.
type Pset struct {
	Index   int
	Box     torus.Box
	Bridges []torus.NodeID
	// uplinks[i] is the netsim link ID of Bridges[i]'s 11th link.
	uplinks []int
}

// System is the built I/O topology for one partition.
type System struct {
	net       *netsim.Network
	psets     []Pset
	nodePset  []int // node -> pset index
	nodeBrIdx []int // node -> default bridge index within pset
}

// Build carves the partition into psets, places bridge nodes, registers
// the 11th links on the network, and assigns every compute node its
// default bridge. The pset count must divide the partition into equal
// rectangular blocks (true for all BG/Q partition geometries).
func Build(net *netsim.Network) (*System, error) {
	tor := net.Torus()
	if tor == nil {
		return nil, fmt.Errorf("ionet: I/O forwarding requires a torus fabric, got %s", net.Topology().Kind())
	}
	if tor.Size()%PsetSize != 0 {
		return nil, fmt.Errorf("ionet: pset size %d does not divide partition size %d", PsetSize, tor.Size())
	}
	nPsets := tor.Size() / PsetSize
	psetBoxes, err := torus.WholeBox(tor).Blocks(nPsets)
	if err != nil {
		return nil, fmt.Errorf("ionet: cannot carve %d psets from %v: %w", nPsets, tor.Shape(), err)
	}
	s := &System{
		net:       net,
		nodePset:  make([]int, tor.Size()),
		nodeBrIdx: make([]int, tor.Size()),
	}
	for pi, box := range psetBoxes {
		ps := Pset{Index: pi, Box: box}
		bridgeBlocks, err := box.Blocks(BridgesPerPset)
		if err != nil {
			return nil, fmt.Errorf("ionet: cannot place %d bridges in pset %v: %w", BridgesPerPset, box, err)
		}
		for bi, bb := range bridgeBlocks {
			bridge := tor.ID(bb.Corner())
			// Register the 11th link as owned by the bridge so node-failure
			// injection (netsim.FailNode) takes the uplink down with it.
			uplink := net.AddLinkFrom(
				fmt.Sprintf("pset%d/bridge%d->ion%d", pi, bi, pi),
				bridge, IONLinkBandwidth)
			ps.Bridges = append(ps.Bridges, bridge)
			ps.uplinks = append(ps.uplinks, uplink)
			for _, n := range bb.Nodes(tor) {
				s.nodePset[n] = pi
				s.nodeBrIdx[n] = bi
			}
		}
		s.psets = append(s.psets, ps)
	}
	return s, nil
}

// NumPsets returns the number of psets, which is also the number of I/O
// nodes available to the partition: each pset has one.
func (s *System) NumPsets() int { return len(s.psets) }

// Pset returns pset i.
func (s *System) Pset(i int) *Pset { return &s.psets[i] }

// PsetOf returns the pset containing node n.
func (s *System) PsetOf(n torus.NodeID) *Pset { return &s.psets[s.nodePset[n]] }

// DefaultPath returns node n's default pset index and bridge index — the
// (pi, bi) pair its unassisted writes travel through.
func (s *System) DefaultPath(n torus.NodeID) (pi, bi int) {
	return s.nodePset[n], s.nodeBrIdx[n]
}

// Uplink returns the 11th-link ID of bridge index bi within pset pi.
func (p *Pset) Uplink(bi int) int { return p.uplinks[bi] }

// torusLeg routes the compute-fabric leg of a write around failed links
// (Network.RouteAvoiding); when no realizable dimension order avoids
// them it falls back to the default route, and the engine's fail-stop
// check surfaces the gap at submit.
func (s *System) torusLeg(n, bridge torus.NodeID) []int {
	if r, err := s.net.RouteAvoiding(n, bridge); err == nil {
		return r.Links
	}
	return s.net.Route(n, bridge).Links
}

// WriteRouteVia returns the write path from node n through a specific
// bridge of a specific pset (used by aggregators that are assigned a
// bridge explicitly to balance the two 11th links of their pset).
func (s *System) WriteRouteVia(n torus.NodeID, pi, bi int) (links []int, bridge torus.NodeID) {
	ps := &s.psets[pi]
	bridge = ps.Bridges[bi]
	leg := s.torusLeg(n, bridge)
	links = make([]int, 0, len(leg)+1)
	links = append(links, leg...)
	links = append(links, ps.uplinks[bi])
	return links, bridge
}

// PsetAggregateIOBandwidth returns the maximum I/O bandwidth of one pset
// (the sum of its 11th links), e.g. 3.6 GB/s usable on the BG/Q.
func (s *System) PsetAggregateIOBandwidth() float64 {
	return BridgesPerPset * IONLinkBandwidth
}
