// Package storage models the tier behind the I/O nodes in the paper's
// Figure 1: each ION uplinks into a QDR InfiniBand switch complex that
// fans out to GPFS file servers. A write that reaches an I/O node is
// forwarded over the ION's IB link and striped across the file servers
// in fixed-size blocks, each server ingesting at its own service rate.
//
// The paper's evaluation stops at the ION (/dev/null); this package is
// the natural extension a production deployment needs, and the harness
// uses it for the storage-tier extension experiment: with a real file
// system behind the IONs, the aggregation win shrinks exactly when the
// servers — not the torus or the 11th links — become the bottleneck.
package storage

import (
	"fmt"

	"bgqflow/internal/ionet"
	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// The Mira-era storage tier.
const (
	ionIBBandwidth  = 4e9     // each I/O node's QDR 4x InfiniBand uplink
	serverBandwidth = 2.5e9   // one file server's ingest rate
	stripeBytes     = 8 << 20 // the GPFS block size writes are striped with

	forwardDelay sim.Duration = 30e-6 // the ION's I/O-forwarding turnaround per request
)

// System is the built storage tier over an ionet.System.
type System struct {
	ios     *ionet.System
	ionIB   []int // per-ION IB link
	servers []int // per-server ingest link
}

// Build registers the IB links of ios's I/O nodes and the ingest links of
// servers GPFS file servers on the network.
func Build(net *netsim.Network, ios *ionet.System, servers int) (*System, error) {
	if servers < 1 {
		return nil, fmt.Errorf("storage: %d servers", servers)
	}
	s := &System{ios: ios}
	for pi := 0; pi < ios.NumPsets(); pi++ {
		s.ionIB = append(s.ionIB, net.AddLink(fmt.Sprintf("ion%d->ib", pi), ionIBBandwidth))
	}
	for sv := 0; sv < servers; sv++ {
		s.servers = append(s.servers, net.AddLink(fmt.Sprintf("ib->fs%d", sv), serverBandwidth))
	}
	return s, nil
}

// NumServers returns the file-server count.
func (s *System) NumServers() int { return len(s.servers) }

// ServerFor maps a file offset to the striped server index.
func (s *System) ServerFor(off int64) int {
	if off < 0 {
		panic(fmt.Sprintf("storage: negative offset %d", off))
	}
	return int((off / stripeBytes) % int64(len(s.servers)))
}

// ServerLink returns the ingest link of server sv.
func (s *System) ServerLink(sv int) int { return s.servers[sv] }

// IONIBLink returns the IB uplink of ION pi.
func (s *System) IONIBLink(pi int) int { return s.ionIB[pi] }

// WriteFlows implements ionet.Sink: the compute-fabric leg to the ION,
// then — store-and-forward at the ION — one IB+server continuation per
// stripe segment the byte range covers.
func (s *System) WriteFlows(n torus.NodeID, pi, bi int, off, bytes int64) (netsim.FlowSpec, []netsim.FlowSpec) {
	links, bridge := s.ios.WriteRouteVia(n, pi, bi)
	fabric := netsim.FlowSpec{
		Src: n, Dst: bridge, Bytes: bytes, Links: links,
		ExtraDelay: forwardDelay,
	}
	var conts []netsim.FlowSpec
	for _, seg := range splitStripes(off, bytes, stripeBytes) {
		conts = append(conts, netsim.FlowSpec{
			Src: bridge, Dst: bridge, Bytes: seg.bytes,
			Links:      []int{s.ionIB[pi], s.servers[s.ServerFor(seg.off)]},
			ExtraDelay: forwardDelay,
		})
	}
	return fabric, conts
}

type stripeSeg struct {
	off, bytes int64
}

// splitStripes cuts [off, off+bytes) at stripe boundaries.
func splitStripes(off, bytes, stripe int64) []stripeSeg {
	var out []stripeSeg
	for bytes > 0 {
		end := (off/stripe + 1) * stripe
		n := end - off
		if n > bytes {
			n = bytes
		}
		out = append(out, stripeSeg{off, n})
		off += n
		bytes -= n
	}
	return out
}
