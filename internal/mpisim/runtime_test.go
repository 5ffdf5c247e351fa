package mpisim

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

func newRT(t *testing.T, shape torus.Shape, ranksPerNode int) (*Runtime, netsim.Params) {
	t.Helper()
	tor := torus.MustNew(shape)
	p := netsim.DefaultParams()
	job, err := NewJob(tor, ranksPerNode)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(job, netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	return rt, p
}

func TestRuntimeSingleRankCompute(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 2, 2, 2}, 1)
	end, err := rt.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return r.Compute(1e-3)
		}
		return r.Compute(5e-3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(end)-5e-3) > 1e-9 {
		t.Fatalf("end time %g, want 5ms", float64(end))
	}
}

func TestRuntimePutTimeMatchesEngine(t *testing.T) {
	rt, p := newRT(t, torus.Shape{2, 2, 4, 4, 2}, 1)
	tor := rt.job.Torus()
	const bytes = 8 << 20
	end, err := rt.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Put(tor.Size()-1, bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hops := tor.HopDistance(0, torus.NodeID(tor.Size()-1))
	want := float64(p.SenderOverhead) + bytes/p.PerFlowBandwidth +
		float64(p.ReceiverOverhead) + float64(hops)*float64(p.HopLatency)
	if math.Abs(float64(end)-want)/want > 1e-9 {
		t.Fatalf("put end %g, want %g", float64(end), want)
	}
}

func TestRuntimeSendRecvBothOrders(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 4, 4, 2}, 1)
	var got int64
	_, err := rt.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			return r.Send(1, 1<<20)
		case 1:
			// Recv after a delay: the message arrives first (mailbox path).
			if err := r.Compute(50e-3); err != nil {
				return err
			}
			n, err := r.Recv(0)
			atomic.StoreInt64(&got, n)
			return err
		case 2:
			// Recv first (waiter path).
			n, err := r.Recv(3)
			if n != 2<<20 {
				return fmt.Errorf("rank 2 got %d", n)
			}
			return err
		case 3:
			if err := r.Compute(10e-3); err != nil {
				return err
			}
			return r.Send(2, 2<<20)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1<<20 {
		t.Fatalf("rank 1 received %d", got)
	}
}

func TestRuntimeMessageOrderPreserved(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 2, 2, 2}, 1)
	var sizes []int64
	_, err := rt.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			for i := 1; i <= 3; i++ {
				if err := r.Send(1, int64(i)<<10); err != nil {
					return err
				}
			}
		case 1:
			for i := 0; i < 3; i++ {
				n, err := r.Recv(0)
				if err != nil {
					return err
				}
				sizes = append(sizes, n)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1 << 10, 2 << 10, 3 << 10} {
		if sizes[i] != want {
			t.Fatalf("message order %v", sizes)
		}
	}
}

func TestRuntimeBarrierSynchronizes(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 2, 2, 2}, 1)
	var after int64
	_, err := rt.Run(func(r *Rank) error {
		// Rank 0 computes for 10ms before the barrier; everyone's
		// post-barrier time must be at least that.
		if r.ID() == 0 {
			if err := r.Compute(10e-3); err != nil {
				return err
			}
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		if float64(r.Now()) < 10e-3 {
			atomic.AddInt64(&after, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Fatalf("%d ranks left the barrier before the slowest entered", after)
	}
}

func TestRuntimeDeadlockDetected(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 2, 2, 2}, 1)
	_, err := rt.Run(func(r *Rank) error {
		if r.ID() == 0 {
			_, err := r.Recv(1) // nobody sends
			return err
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlock not detected: %v", err)
	}
}

func TestRuntimeContentionSlowsSharedLink(t *testing.T) {
	// Two ranks putting over the same link take twice as long as one.
	shape := torus.Shape{8}
	const bytes = 16 << 20
	run := func(nSenders int) float64 {
		rt, _ := newRT(t, shape, 1)
		end, err := rt.Run(func(r *Rank) error {
			if r.ID() < nSenders {
				return r.Put(r.ID()+4, bytes) // 0->4 and 1->5 share ring links
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(end)
	}
	one := run(1)
	two := run(2)
	if two < one*1.5 {
		t.Fatalf("shared-link contention missing: one %g, two %g", one, two)
	}
}

func TestRuntimeValidation(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 2, 2, 2}, 1)
	_, err := rt.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		if err := r.Put(-1, 1); err == nil {
			return fmt.Errorf("bad Put dst accepted")
		}
		if err := r.Send(1<<30, 1); err == nil {
			return fmt.Errorf("bad Send dst accepted")
		}
		if _, err := r.Recv(-5); err == nil {
			return fmt.Errorf("bad Recv src accepted")
		}
		if err := r.Compute(-1); err == nil {
			return fmt.Errorf("negative compute accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Compute(NaN) must fail like a negative time: scheduled, it would set
// the virtual clock to NaN for the rest of the run.
func TestRuntimeComputeRejectsNaN(t *testing.T) { requireComputeRejected(t, math.NaN()) }

// Compute(+Inf) must fail too: scheduled, it would move the clock to
// +Inf and every later event with it.
func TestRuntimeComputeRejectsInf(t *testing.T) { requireComputeRejected(t, math.Inf(1)) }

// requireComputeRejected checks that Compute(d) fails and leaves the
// clock where a following 1 ms compute phase ends the run at 1 ms.
func requireComputeRejected(t *testing.T, d float64) {
	t.Helper()
	rt, _ := newRT(t, torus.Shape{2, 2, 2, 2, 2}, 1)
	end, err := rt.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		if err := r.Compute(sim.Duration(d)); err == nil {
			return fmt.Errorf("compute time %g accepted", d)
		}
		return r.Compute(1e-3)
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != 1e-3 {
		t.Fatalf("run ended at %v, want 1ms", end)
	}
}

// A ring halo exchange: every rank sends to its +1 neighbor and receives
// from its -1 neighbor, repeatedly — the classic SPMD pattern.
func TestRuntimeHaloExchangeRing(t *testing.T) {
	rt, _ := newRT(t, torus.Shape{2, 2, 4, 4, 2}, 1)
	n := rt.job.NumRanks()
	const steps = 3
	end, err := rt.Run(func(r *Rank) error {
		for s := 0; s < steps; s++ {
			if err := r.Send((r.ID()+1)%n, 256<<10); err != nil {
				return err
			}
			if _, err := r.Recv((r.ID() + n - 1) % n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("no time elapsed")
	}
	// Every link carried traffic in both... at least the used ring links
	// saw steps * 256KB.
	var total float64
	for _, b := range rt.Engine().LinkBytes() {
		total += b
	}
	if total <= 0 {
		t.Fatal("no link traffic recorded")
	}
}

// The SPMD runtime and the plan-based engine agree: a proxied transfer
// written as a rank program (source sends pieces to proxies, proxies
// forward) matches the planner's throughput.
func TestRuntimeManualProxyTransfer(t *testing.T) {
	rt, p := newRT(t, torus.Shape{2, 2, 4, 4, 2}, 1)
	tor := rt.job.Torus()
	last := tor.Size() - 1
	const piece = 8 << 20
	proxies := []int{int(tor.ID(torus.Coord{0, 1, 0, 0, 0})), int(tor.ID(torus.Coord{0, 0, 1, 0, 0})),
		int(tor.ID(torus.Coord{0, 0, 0, 1, 0})), int(tor.ID(torus.Coord{0, 0, 0, 0, 1}))}
	end, err := rt.Run(func(r *Rank) error {
		switch {
		case r.ID() == 0:
			for _, px := range proxies {
				if err := r.Send(px, piece); err != nil {
					return err
				}
			}
		case inInts(proxies, r.ID()):
			if _, err := r.Recv(0); err != nil {
				return err
			}
			return r.Send(last, piece)
		case r.ID() == last:
			for _, px := range proxies {
				if _, err := r.Recv(px); err != nil {
					return err
				}
			}
		}
		return nil
	})
	_ = p
	if err != nil {
		t.Fatal(err)
	}
	gbps := float64(4*piece) / float64(end) / 1e9
	// Sequential sends at the source serialize the first legs, so this
	// is below the planner's 3.3 GB/s, but must beat a single path.
	if gbps < 1.0 {
		t.Fatalf("manual proxy transfer %.2f GB/s", gbps)
	}
}

func inInts(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
