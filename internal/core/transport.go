package core

import (
	"fmt"
	"sync"

	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/torus"
)

// Transport is the session-style entry point an application embeds: open
// it once, then Move data between node pairs as transfers arise. For
// every pair it consults the Eq. 1-5 cost model to decide direct versus
// multipath, caches the (expensive) proxy selection so repeated
// transfers between the same endpoints — the common case in coupled
// codes — plan in O(1), and honors injected link failures.
type Transport struct {
	tor   *torus.Torus
	cfg   ProxyConfig
	model *CostModel

	mu     sync.Mutex
	faults func(int) bool
	cache  map[pairKey]*pairEntry
	hits   int
	misses int

	// rec, when set, receives plan instants from Move and the wave /
	// detect / replan span timeline from MoveResilient, filed under
	// track; registry counters (transport/...) ride along. nil = off.
	rec   *obs.Recorder
	track string
}

type pairKey struct {
	src, dst torus.NodeID
}

type pairEntry struct {
	proxies   []ProxyRoute
	threshold int64
}

// NewTransport builds a transport for the partition. The cost model uses
// the machine constants in p; the ProxyConfig's fixed Threshold is
// ignored (the model derives a per-pair threshold).
func NewTransport(tor *torus.Torus, p netsim.Params, cfg ProxyConfig) (*Transport, error) {
	if err := cfg.validate(tor.Dims()); err != nil {
		return nil, err
	}
	model, err := NewCostModel(p)
	if err != nil {
		return nil, err
	}
	return &Transport{
		tor:   tor,
		cfg:   cfg,
		model: model,
		cache: make(map[pairKey]*pairEntry),
	}, nil
}

// SetFaults installs a failed-link predicate and invalidates the
// selection cache (cached routes may cross newly failed links).
func (t *Transport) SetFaults(failed func(int) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = failed
	t.cache = make(map[pairKey]*pairEntry)
}

// Stats reports cache hits and misses, for observability.
func (t *Transport) Stats() (hits, misses int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses
}

// SetRecorder attaches an observability recorder: Move emits plan
// instants and MoveResilient wraps each recovery wave and each
// detect->replan->degrade iteration in spans on the given track ("" means
// "transport"). Attach an obs.EngineSink to the engine as well to get
// the per-leg flow spans under the same recorder. Pass nil to detach.
func (t *Transport) SetRecorder(rec *obs.Recorder, track string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec = rec
	if track == "" {
		track = "transport"
	}
	t.track = track
}

// recorder returns the attached recorder and track under the lock.
func (t *Transport) recorder() (*obs.Recorder, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec, t.track
}

// entryFor returns the cached selection for a pair, computing it on the
// first use.
func (t *Transport) entryFor(src, dst torus.NodeID) *pairEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := pairKey{src, dst}
	if e, ok := t.cache[key]; ok {
		t.hits++
		if t.rec != nil {
			t.rec.Registry().Counter("transport/pair_cache_hits").Inc()
		}
		return e
	}
	t.misses++
	if t.rec != nil {
		t.rec.Registry().Counter("transport/pair_cache_misses").Inc()
	}
	proxies := selectProxies(t.tor, src, dst, t.cfg, t.faults)
	entry := &pairEntry{proxies: proxies}
	if len(proxies) >= t.cfg.MinProxies && len(proxies) > 0 {
		hopsDirect := t.tor.HopDistance(src, dst)
		// Representative leg hop counts from the actual selection.
		h1, h2 := 0, 0
		for _, pr := range proxies {
			h1 += pr.Leg1.Hops()
			h2 += pr.Leg2.Hops()
		}
		h1 /= len(proxies)
		h2 /= len(proxies)
		entry.threshold = t.model.Threshold(len(proxies), hopsDirect, h1, h2)
		if entry.threshold == 0 {
			entry.threshold = 1 << 62 // the model says proxies never win
		}
	} else {
		entry.threshold = 1 << 62
	}
	t.cache[key] = entry
	return entry
}

// Move plans one transfer on e, choosing the mode per the cached
// selection and per-pair model threshold.
func (t *Transport) Move(e *netsim.Engine, src, dst torus.NodeID, bytes int64) (PairPlan, error) {
	if bytes < 0 {
		return PairPlan{}, fmt.Errorf("core: negative transfer size %d", bytes)
	}
	if int(src) < 0 || int(src) >= t.tor.Size() || int(dst) < 0 || int(dst) >= t.tor.Size() {
		return PairPlan{}, fmt.Errorf("core: endpoints (%d,%d) outside partition", src, dst)
	}
	entry := t.entryFor(src, dst)
	rec, track := t.recorder()
	if src == dst || bytes < entry.threshold || len(entry.proxies) < t.cfg.MinProxies {
		if rec != nil {
			rec.Instant(track, fmt.Sprintf("plan direct %d->%d (%dB)", src, dst, bytes), e.Now())
			rec.Registry().Counter("transport/moves_direct").Inc()
		}
		spec := netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes, Label: "transport/direct"}
		if t.faults != nil && src != dst {
			// Fault-aware direct route.
			pl := &PairPlanner{tor: t.tor, cfg: t.cfg, faults: t.faults}
			return pl.PlanPair(e, src, dst, bytes)
		}
		id := e.Submit(spec)
		return PairPlan{Mode: Direct, Bytes: bytes, Flows: []netsim.FlowID{id}, Final: []netsim.FlowID{id}}, nil
	}
	if rec != nil {
		rec.Instant(track, fmt.Sprintf("plan proxied k=%d %d->%d (%dB)", len(entry.proxies), src, dst, bytes), e.Now())
		rec.Registry().Counter("transport/moves_proxied").Inc()
	}
	plan := PairPlan{Mode: Proxied, Proxies: entry.proxies, Bytes: bytes}
	pieces := splitBytes(bytes, len(entry.proxies))
	for i, pr := range entry.proxies {
		flows, finals := submitLegPair(e, t.cfg, pr, pieces[i], fmt.Sprintf("transport/proxy%d", i))
		plan.Flows = append(plan.Flows, flows...)
		plan.Final = append(plan.Final, finals...)
	}
	return plan, nil
}
