// Package faultinject builds deterministic, seeded fault campaigns —
// time-scheduled link and node failures — and applies them to a netsim
// engine. A campaign is a plain list of events, so scenarios and
// experiments can construct one from a seed (uniform, MTBF-style, burst,
// or targeted generators below), validate it against a network, and
// schedule it with Apply; the same seed always yields the same campaign.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// Event is one scheduled failure: a single link, or a whole node (all of
// its torus links plus registered extra links).
type Event struct {
	At     sim.Time
	Link   int // valid when !IsNode
	Node   torus.NodeID
	IsNode bool
}

// Campaign is a deterministic set of failure events. Events are kept
// sorted by time; ties break by insertion order.
type Campaign struct {
	Name   string
	Seed   int64
	Events []Event
}

// Validate checks a campaign against a network: every link in range and
// not an obvious duplicate, every node in range, every time nonnegative.
// Campaign generators always produce valid campaigns; Validate guards
// hand-built and deserialized ones.
func (c *Campaign) Validate(numLinks, numNodes int) error {
	links := make(map[int]struct{}, len(c.Events))
	nodes := make(map[torus.NodeID]struct{}, len(c.Events))
	for i, ev := range c.Events {
		if ev.At < 0 || math.IsNaN(float64(ev.At)) || math.IsInf(float64(ev.At), 0) {
			return fmt.Errorf("faultinject: campaign %q event %d at invalid time %g", c.Name, i, float64(ev.At))
		}
		if ev.IsNode {
			if ev.Node < 0 || int(ev.Node) >= numNodes {
				return fmt.Errorf("faultinject: campaign %q event %d fails out-of-range node %d", c.Name, i, ev.Node)
			}
			if _, dup := nodes[ev.Node]; dup {
				return fmt.Errorf("faultinject: campaign %q schedules node %d twice", c.Name, ev.Node)
			}
			nodes[ev.Node] = struct{}{}
			continue
		}
		if ev.Link < 0 || ev.Link >= numLinks {
			return fmt.Errorf("faultinject: campaign %q event %d fails out-of-range link %d", c.Name, i, ev.Link)
		}
		if _, dup := links[ev.Link]; dup {
			return fmt.Errorf("faultinject: campaign %q schedules link %d twice", c.Name, ev.Link)
		}
		links[ev.Link] = struct{}{}
	}
	return nil
}

// Apply validates the campaign against the engine's network and schedules
// every event on its clock.
func (c *Campaign) Apply(e *netsim.Engine) error {
	net := e.Network()
	if err := c.Validate(net.NumLinks(), net.NumNodes()); err != nil {
		return err
	}
	for _, ev := range c.Events {
		if ev.IsNode {
			e.FailNodeAt(ev.Node, ev.At)
		} else {
			e.FailLinkAt(ev.Link, ev.At)
		}
	}
	return nil
}

func (c *Campaign) sortByTime() {
	sort.SliceStable(c.Events, func(i, j int) bool { return c.Events[i].At < c.Events[j].At })
}

// pickDistinct draws n distinct values in [0, limit) from rng. It panics
// if n > limit; campaign constructors bound n first.
func pickDistinct(rng *rand.Rand, n, limit int) []int {
	if n > limit {
		panic(fmt.Sprintf("faultinject: want %d distinct of %d", n, limit))
	}
	seen := make(map[int]struct{}, n)
	out := make([]int, 0, n)
	for len(out) < n {
		v := rng.Intn(limit)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}

// UniformLinks builds a campaign of n distinct torus-link failures with
// times drawn uniformly over (0, window].
func UniformLinks(tor *torus.Torus, seed int64, n int, window sim.Time) *Campaign {
	rng := rand.New(rand.NewSource(seed))
	c := &Campaign{Name: fmt.Sprintf("uniform-%d", n), Seed: seed}
	for _, l := range pickDistinct(rng, n, tor.NumTorusLinks()) {
		at := sim.Time(rng.Float64()) * window
		c.Events = append(c.Events, Event{At: at, Link: l})
	}
	c.sortByTime()
	return c
}

// MTBFLinks builds a campaign whose failures arrive as a Poisson process
// with the given mean time between failures, truncated at horizon. Each
// arrival fails a fresh distinct torus link; the campaign holds however
// many arrivals fit in the horizon (possibly zero).
func MTBFLinks(tor *torus.Torus, seed int64, mtbf, horizon sim.Time) *Campaign {
	rng := rand.New(rand.NewSource(seed))
	c := &Campaign{Name: "mtbf", Seed: seed}
	seen := make(map[int]struct{})
	at := sim.Time(0)
	for {
		at += sim.Time(rng.ExpFloat64()) * mtbf
		if at > horizon || len(seen) >= tor.NumTorusLinks() {
			break
		}
		var l int
		for {
			l = rng.Intn(tor.NumTorusLinks())
			if _, dup := seen[l]; !dup {
				break
			}
		}
		seen[l] = struct{}{}
		c.Events = append(c.Events, Event{At: at, Link: l})
	}
	return c
}

// BurstLinks fails n distinct torus links at one shared instant — the
// correlated-failure case (e.g. a midplane power event).
func BurstLinks(tor *torus.Torus, seed int64, n int, at sim.Time) *Campaign {
	rng := rand.New(rand.NewSource(seed))
	c := &Campaign{Name: fmt.Sprintf("burst-%d", n), Seed: seed}
	for _, l := range pickDistinct(rng, n, tor.NumTorusLinks()) {
		c.Events = append(c.Events, Event{At: at, Link: l})
	}
	return c
}

// TargetedLinks fails n distinct links drawn from an explicit pool, with
// times uniform over (0, window]. The campaign always includes pool[0]:
// R1 passes a pool headed by a direct-route link, guaranteeing the direct
// path takes a failure in every nonempty campaign. It panics if the pool
// (deduplicated) holds fewer than n links.
func TargetedLinks(seed int64, pool []int, n int, window sim.Time) *Campaign {
	uniq := make([]int, 0, len(pool))
	seen := make(map[int]struct{}, len(pool))
	for _, l := range pool {
		if _, dup := seen[l]; !dup {
			seen[l] = struct{}{}
			uniq = append(uniq, l)
		}
	}
	if n > len(uniq) {
		panic(fmt.Sprintf("faultinject: targeted campaign wants %d links from a pool of %d", n, len(uniq)))
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Campaign{Name: fmt.Sprintf("targeted-%d", n), Seed: seed}
	if n > 0 {
		c.Events = append(c.Events, Event{At: sim.Time(rng.Float64()) * window, Link: uniq[0]})
		for _, idx := range pickDistinct(rng, n-1, len(uniq)-1) {
			at := sim.Time(rng.Float64()) * window
			c.Events = append(c.Events, Event{At: at, Link: uniq[idx+1]})
		}
	}
	c.sortByTime()
	return c
}

// Nodes fails n distinct nodes from the candidate list (e.g. a system's
// bridge nodes for bridge/ION campaigns), times uniform over (0, window].
func Nodes(seed int64, candidates []torus.NodeID, n int, window sim.Time) *Campaign {
	if n > len(candidates) {
		panic(fmt.Sprintf("faultinject: node campaign wants %d of %d candidates", n, len(candidates)))
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Campaign{Name: fmt.Sprintf("nodes-%d", n), Seed: seed}
	for _, idx := range pickDistinct(rng, n, len(candidates)) {
		at := sim.Time(rng.Float64()) * window
		c.Events = append(c.Events, Event{At: at, Node: candidates[idx], IsNode: true})
	}
	c.sortByTime()
	return c
}
