package core

import (
	"testing"
	"testing/quick"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

func newModel(t *testing.T) *CostModel {
	t.Helper()
	m, err := NewCostModel(netsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCostModelValidates(t *testing.T) {
	p := netsim.DefaultParams()
	p.LinkBandwidth = 0
	if _, err := NewCostModel(p); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestDirectTimeMonotoneInSize(t *testing.T) {
	m := newModel(t)
	prev := m.DirectTime(0, 5)
	for _, d := range []int64{1 << 10, 1 << 15, 1 << 20, 1 << 25} {
		cur := m.DirectTime(d, 5)
		if cur <= prev {
			t.Fatalf("DirectTime not increasing at %d bytes", d)
		}
		prev = cur
	}
}

func TestGainApproachesKOver2(t *testing.T) {
	m := newModel(t)
	for _, k := range []int{3, 4, 6} {
		g := m.Gain(1<<33, k, 5, 1, 4) // 8 GB: asymptotic regime
		want := float64(k) / 2
		if g < want*0.95 || g > want*1.05 {
			t.Fatalf("asymptotic gain for k=%d is %.3f, want ~%.1f (Eq. 5)", k, g, want)
		}
	}
}

func TestGainSmallMessagesLose(t *testing.T) {
	m := newModel(t)
	if g := m.Gain(4<<10, 4, 5, 1, 4); g >= 1 {
		t.Fatalf("4KB gain %.2f, small messages must lose", g)
	}
}

func TestThresholdMatchesPaper(t *testing.T) {
	m := newModel(t)
	// The Fig. 5 geometry: direct 5 hops, leg1 1 hop, leg2 4 hops, k=4.
	th := m.Threshold(4, 5, 1, 4)
	if th < 128<<10 || th > 512<<10 {
		t.Fatalf("model threshold %d bytes, paper reports 256KB", th)
	}
}

func TestThresholdZeroForK2(t *testing.T) {
	m := newModel(t)
	if th := m.Threshold(2, 5, 1, 4); th != 0 {
		t.Fatalf("k=2 threshold %d, Eq. 5 says k=2 never wins", th)
	}
	if th := m.Threshold(1, 5, 1, 4); th != 0 {
		t.Fatal("k=1 should never win")
	}
}

// The model must agree with the simulator on the Fig. 5 geometry within
// a few percent for uncontended disjoint paths.
func TestModelMatchesSimulator(t *testing.T) {
	m := newModel(t)
	tor := mira128()
	pl, _ := NewPairPlanner(tor, ProxyConfig{Proxies: 4})
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	for _, d := range []int64{1 << 20, 16 << 20, 128 << 20} {
		// Simulate.
		e := newEngine(t, tor)
		if _, err := pl.PlanPair(e, src, dst, d); err != nil {
			t.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		// Predict (legs in the Fig. 5 plan are 1 + 4 hops).
		pred := m.ProxyTime(d, 4, 1, 4)
		ratio := float64(mk) / float64(pred)
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("at %d bytes: simulated %.3gs, predicted %.3gs (ratio %.2f)",
				d, float64(mk), float64(pred), ratio)
		}
	}
}

func TestModelDirectMatchesSimulator(t *testing.T) {
	m := newModel(t)
	tor := mira128()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	for _, d := range []int64{64 << 10, 4 << 20, 64 << 20} {
		e := newEngine(t, tor)
		e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: d})
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		pred := m.DirectTime(d, tor.HopDistance(src, dst))
		ratio := float64(mk) / float64(pred)
		if ratio < 0.99 || ratio > 1.01 {
			t.Fatalf("direct at %d bytes: simulated %.4g, predicted %.4g", d, float64(mk), float64(pred))
		}
	}
}

func TestBestProxyCount(t *testing.T) {
	m := newModel(t)
	if k := m.BestProxyCount(16<<10, 8, 5, 1, 4); k != 0 {
		t.Fatalf("16KB best k = %d, want 0 (direct)", k)
	}
	if k := m.BestProxyCount(64<<20, 8, 5, 1, 4); k != 8 {
		t.Fatalf("64MB best k = %d, want 8 (more disjoint paths always help large messages)", k)
	}
}

// Property: gain is monotone nondecreasing in message size for k >= 3.
func TestPropertyGainMonotone(t *testing.T) {
	m := newModel(t)
	f := func(aRaw, bRaw uint32, kRaw uint8) bool {
		k := int(kRaw%6) + 3
		a, b := int64(aRaw)+1, int64(bRaw)+1
		if a > b {
			a, b = b, a
		}
		return m.Gain(a, k, 5, 1, 4) <= m.Gain(b, k, 5, 1, 4)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// At the operating point every resilient wave decides on the Eq. 1-5
// model: on a quiet engine the first wave moves 64 KB direct and 4 MB
// proxied.
func TestAutoThresholdPlansLikeThePaper(t *testing.T) {
	tor := mira128()
	pl, err := NewPairPlanner(tor, DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	firstWave := func(bytes int64) TransferMode {
		t.Helper()
		e := newEngine(t, tor)
		e.BeginInteractive()
		var waves []TransferEvent
		rc := DefaultRecoveryConfig()
		rc.OnEvent = func(ev TransferEvent) {
			if ev.Kind == EventWave {
				waves = append(waves, ev)
			}
		}
		if _, err := pl.MoveResilient(e, 0, torus.NodeID(tor.Size()-1), bytes, rc); err != nil {
			t.Fatal(err)
		}
		if len(waves) == 0 {
			t.Fatalf("%d bytes: no wave released", bytes)
		}
		return waves[0].Mode
	}
	// Below the paper's 256KB crossover: the model says direct.
	if m := firstWave(64 << 10); m != Direct {
		t.Fatalf("64KB first wave went %v at the operating point", m)
	}
	// Well above: proxied.
	if m := firstWave(4 << 20); m != Proxied {
		t.Fatalf("4MB first wave went %v at the operating point", m)
	}
}
