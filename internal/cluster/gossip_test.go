package cluster

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bgqflow/internal/scenario"
)

// buildMesh wires n in-process gossip nodes over one MemTransport.
func buildMesh(t testing.TB, n int, seed int64, loss float64) ([]*Node, *MemTransport) {
	t.Helper()
	tr := NewMemTransport(seed)
	tr.LossRate = loss
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mem://%d", i)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		nodes[i] = NewNode(NodeConfig{
			ID:        fmt.Sprintf("r%d", i),
			Peers:     peers,
			Transport: tr,
			Seed:      seed + int64(i),
		}, NewLog())
		tr.Register(addrs[i], nodes[i])
	}
	return nodes, tr
}

// originate is the serve layer's fault path on a bare node: stamp and
// apply the event locally, then push it to every peer.
func originate(ctx context.Context, n *Node, links []scenario.FailLink, clear bool) {
	n.Broadcast(ctx, []Event{n.Log().Originate(n.ID(), links, clear)})
}

func converged(nodes []*Node) bool {
	ref := nodes[0].Log().Digest()
	refFaults := nodes[0].Log().FaultSet()
	for _, n := range nodes[1:] {
		if !n.Log().Digest().Equal(ref) {
			return false
		}
		if !reflect.DeepEqual(n.Log().FaultSet(), refFaults) {
			return false
		}
	}
	return true
}

// TestGossipConvergenceLossy is the satellite-2 headline: 5 in-process
// replicas, seeded message loss AND in-flight event reorder, events
// originated at different replicas — every replica must reach the same
// fault-epoch vector (and identical fault set) within a bounded number
// of anti-entropy rounds.
func TestGossipConvergenceLossy(t *testing.T) {
	const (
		replicas  = 5
		maxRounds = 30
	)
	for _, seed := range []int64{1, 2, 3, 7, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			nodes, _ := buildMesh(t, replicas, seed, 0.4)
			ctx := context.Background()
			// Originate at three different replicas, including a clear in the
			// middle; the eager broadcast itself is lossy, so anti-entropy
			// rounds must repair.
			originate(ctx, nodes[0], []scenario.FailLink{fl(1)}, false)
			originate(ctx, nodes[2], []scenario.FailLink{fl(2), fl(3)}, false)
			originate(ctx, nodes[4], nil, true)
			originate(ctx, nodes[1], []scenario.FailLink{fl(4)}, false)

			rounds := 0
			for ; rounds < maxRounds && !converged(nodes); rounds++ {
				for _, n := range nodes {
					n.Round(ctx)
				}
			}
			if !converged(nodes) {
				for i, n := range nodes {
					t.Logf("node %d digest=%v faults=%v", i, n.Log().Digest(), n.Log().FaultSet())
				}
				t.Fatalf("no convergence after %d rounds at 40%% loss", maxRounds)
			}
			t.Logf("converged in %d rounds (digest %v)", rounds, nodes[0].Log().Digest())
			// All four origins visible.
			want := Vector{"r0": 1, "r2": 1, "r4": 1, "r1": 1}
			if got := nodes[3].Log().Digest(); !got.Equal(want) {
				t.Fatalf("digest = %v, want %v", got, want)
			}
		})
	}
}

// TestGossipBroadcastReliable: with a lossless transport, one
// originated event reaches every peer synchronously — no rounds needed.
func TestGossipBroadcastReliable(t *testing.T) {
	nodes, _ := buildMesh(t, 5, 99, 0)
	originate(context.Background(), nodes[2], []scenario.FailLink{fl(5)}, false)
	if !converged(nodes) {
		t.Fatal("lossless broadcast did not reach all peers synchronously")
	}
}

// TestGossipPullRepairsLateJoiner: a node that missed everything (all
// its inbound messages lost) catches up by pulling — its own Round
// carries its stale digest out, and the push-pull reply returns the
// delta.
func TestGossipPullRepairsLateJoiner(t *testing.T) {
	nodes, tr := buildMesh(t, 3, 5, 0)
	ctx := context.Background()
	// Cut node 2 off during origination.
	tr.LossRate = 1.0
	originate(ctx, nodes[0], []scenario.FailLink{fl(1)}, false)
	originate(ctx, nodes[1], []scenario.FailLink{fl(2)}, false)
	if nodes[2].Log().EventsApplied() != 0 {
		t.Fatal("test setup: node 2 should have missed everything")
	}
	// Heal the network; node 2's own rounds must repair it. Node 0 and 1
	// also repair each other (their cross-broadcasts were lost too).
	tr.LossRate = 0
	for r := 0; r < 10 && !converged(nodes); r++ {
		for _, n := range nodes {
			n.Round(ctx)
		}
	}
	if !converged(nodes) {
		t.Fatalf("late joiner never caught up: digest=%v", nodes[2].Log().Digest())
	}
}

// TestGossipOnApplyOrderAndCount: OnApply fires exactly once per event
// newly applied from a peer — pushed or pulled — outside the log lock,
// in apply order. Local originations do not fire it: the serve layer
// publishes those itself.
func TestGossipOnApplyOrderAndCount(t *testing.T) {
	tr := NewMemTransport(1)
	var mu sync.Mutex
	var seen []string
	mk := func(id string, peers ...string) *Node {
		n := NewNode(NodeConfig{
			ID: id, Peers: peers, Transport: tr, Seed: 1,
			OnApply: func(evs []Event) {
				mu.Lock()
				defer mu.Unlock()
				for _, ev := range evs {
					seen = append(seen, fmt.Sprintf("%s:%s:%d", id, ev.Origin, ev.Seq))
				}
			},
		}, NewLog())
		tr.Register("mem://"+id, n)
		return n
	}
	a := mk("a", "mem://b")
	b := mk("b", "mem://a")

	ctx := context.Background()
	originate(ctx, a, []scenario.FailLink{fl(1)}, false)
	originate(ctx, a, []scenario.FailLink{fl(2)}, false)
	// Not broadcast: a's next round pulls it.
	b.Log().Originate("b", []scenario.FailLink{fl(3)}, false)
	a.Round(ctx)
	a.Round(ctx)

	mu.Lock()
	defer mu.Unlock()
	want := []string{"b:a:1", "b:a:2", "a:b:1"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("OnApply calls = %v, want %v (once per peer-applied event, in order)", seen, want)
	}
}

// TestGossipConcurrentOriginateRace is the -race hammer: concurrent
// fault posts on different replicas, interleaved with anti-entropy
// rounds, over a lossy transport. Run with -race; the assertion is that
// after a quiesce phase every node converges and every per-origin
// sequence is gapless.
func TestGossipConcurrentOriginateRace(t *testing.T) {
	const (
		replicas = 5
		posts    = 20
	)
	nodes, tr := buildMesh(t, replicas, 77, 0.3)
	ctx := context.Background()

	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				originate(ctx, n, []scenario.FailLink{fl(i*1000 + p)}, false)
				if p%5 == 4 {
					n.Round(ctx)
				}
			}
		}(i, n)
	}
	wg.Wait()

	// Quiesce: lossless rounds until converged.
	tr.LossRate = 0
	for r := 0; r < 50 && !converged(nodes); r++ {
		for _, n := range nodes {
			n.Round(ctx)
		}
	}
	if !converged(nodes) {
		t.Fatal("no convergence after concurrent originate storm")
	}
	want := Vector{}
	for i := 0; i < replicas; i++ {
		want[fmt.Sprintf("r%d", i)] = posts
	}
	if got := nodes[0].Log().Digest(); !got.Equal(want) {
		t.Fatalf("digest = %v, want %v (gapless %d posts per origin)", got, want, posts)
	}
	if got := len(nodes[0].Log().FaultSet()); got != replicas*posts {
		t.Fatalf("fault set has %d links, want %d", got, replicas*posts)
	}
}
