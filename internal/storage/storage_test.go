package storage

import (
	"testing"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

func build(t *testing.T, shape torus.Shape, servers int) (*System, *netsim.Network, *ionet.System) {
	t.Helper()
	tor := torus.MustNew(shape)
	net := netsim.NewNetwork(tor, 1.8e9)
	ios, err := ionet.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(net, ios, servers)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, ios
}

func TestBuildRegistersLinks(t *testing.T) {
	s, net, ios := build(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	if s.NumServers() != 16 {
		t.Fatalf("NumServers = %d", s.NumServers())
	}
	for pi := 0; pi < ios.NumPsets(); pi++ {
		l := s.IONIBLink(pi)
		if net.Capacity(l) != 4e9 {
			t.Fatalf("IB link %d capacity %g", l, net.Capacity(l))
		}
	}
	for sv := 0; sv < s.NumServers(); sv++ {
		if net.Capacity(s.ServerLink(sv)) != 2.5e9 {
			t.Fatal("server link capacity wrong")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	net := netsim.NewNetwork(tor, 1.8e9)
	ios, _ := ionet.Build(net)
	if _, err := Build(net, ios, 0); err == nil {
		t.Error("zero servers accepted")
	}
}

func TestServerForStripes(t *testing.T) {
	s, _, _ := build(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	const stripe = stripeBytes
	if s.ServerFor(0) != 0 {
		t.Fatal("offset 0 should map to server 0")
	}
	if s.ServerFor(stripe) != 1 {
		t.Fatal("second stripe should map to server 1")
	}
	if s.ServerFor(stripe*int64(s.NumServers())) != 0 {
		t.Fatal("striping should wrap around")
	}
}

func TestSplitStripes(t *testing.T) {
	segs := splitStripes(10, 25, 16)
	// [10,16) [16,32) [32,35)
	want := []stripeSeg{{10, 6}, {16, 16}, {32, 3}}
	if len(segs) != len(want) {
		t.Fatalf("segments %v", segs)
	}
	var total int64
	for i, s := range segs {
		if s != want[i] {
			t.Fatalf("segments %v, want %v", segs, want)
		}
		total += s.bytes
	}
	if total != 25 {
		t.Fatalf("segments lose bytes: %d", total)
	}
}

func TestWriteFlowsShape(t *testing.T) {
	s, _, _ := build(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	const stripe = stripeBytes
	fabric, conts := s.WriteFlows(0, 0, 0, stripe/2, stripe) // crosses one boundary
	if fabric.Bytes != stripe {
		t.Fatalf("fabric leg carries %d", fabric.Bytes)
	}
	if len(conts) != 2 {
		t.Fatalf("%d continuations, want 2", len(conts))
	}
	var sum int64
	for _, c := range conts {
		sum += c.Bytes
		if len(c.Links) != 2 {
			t.Fatalf("continuation has %d links, want IB + server", len(c.Links))
		}
	}
	if sum != stripe {
		t.Fatalf("continuations carry %d, want %d", sum, stripe)
	}
	// The two segments go to different servers.
	if conts[0].Links[1] == conts[1].Links[1] {
		t.Fatal("adjacent stripes landed on the same server")
	}
}

// Sink interface compliance.
var _ ionet.Sink = (*System)(nil)

// End-to-end: aggregation through the storage tier completes, delivers
// all bytes to servers, and is slower than the /dev/null sink when the
// servers are the bottleneck.
func TestAggregationThroughStorage(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	ios, err := ionet.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	const servers = 2 // few servers: the tier becomes the bottleneck
	st, err := Build(net, ios, servers)
	if err != nil {
		t.Fatal(err)
	}
	job, _ := mpisim.NewJob(tor, 16)
	data := workload.Pattern2(job.NumRanks(), 8<<20, 13)

	run := func(sink ionet.Sink) float64 {
		e, err := netsim.NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.NewAggPlanner(ios, job, p, core.DefaultAggConfig())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pl.PlanWithSink(e, data, sink)
		if err != nil {
			t.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var arrived int64
		for _, id := range plan.Final {
			arrived += e.Result(id).Bytes
		}
		if arrived != plan.TotalBytes {
			t.Fatalf("arrived %d of %d", arrived, plan.TotalBytes)
		}
		return float64(plan.TotalBytes) / float64(mk)
	}

	devnull := run(ionet.DevNull{S: ios, ForwardDelay: p.ProxyForwardOverhead})
	gpfs := run(st)
	if gpfs >= devnull {
		t.Fatalf("storage-limited run (%.3g) should be slower than /dev/null (%.3g)", gpfs, devnull)
	}
	// The server tier caps at Servers * ServerBandwidth = 20 GB/s.
	cap := servers * serverBandwidth
	if gpfs > cap*1.01 {
		t.Fatalf("throughput %.3g exceeds server capacity %.3g", gpfs, cap)
	}
}
