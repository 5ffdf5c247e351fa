package experiments

import (
	"testing"

	"bgqflow/internal/routing"
)

func quickOpts() Options {
	return Options{Quick: true}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Direct.Points) != len(res.Proxied.Points) || len(res.Direct.Points) == 0 {
		t.Fatal("curve lengths mismatch")
	}
	last := len(res.Direct.Points) - 1
	// Large-message plateau: direct ~1.6 GB/s, proxied ~2x.
	d := res.Direct.Points[last].GBps
	p := res.Proxied.Points[last].GBps
	if d < 1.4 || d > 1.8 {
		t.Fatalf("direct plateau %.2f GB/s, want ~1.6", d)
	}
	if p/d < 1.6 || p/d > 2.4 {
		t.Fatalf("proxied gain %.2fx, want ~2x", p/d)
	}
	// Small messages favor direct.
	if res.Proxied.Points[0].GBps >= res.Direct.Points[0].GBps {
		t.Fatal("small message should favor direct")
	}
	if res.Crossover == 0 {
		t.Fatal("no crossover found")
	}
}

func TestFig5CrossoverNearPaper(t *testing.T) {
	res, err := Fig5(Options{}) // full sweep for crossover accuracy
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 256 KB. Accept within one doubling.
	if res.Crossover < 128<<10 || res.Crossover > 512<<10 {
		t.Fatalf("crossover at %d bytes, paper reports 256KB", res.Crossover)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("selected %d proxy groups, paper used 3", len(res.Groups))
	}
	last := len(res.Direct.Points) - 1
	gain := res.Proxied.Points[last].GBps / res.Direct.Points[last].GBps
	if gain < 1.3 || gain > 1.7 {
		t.Fatalf("group gain %.2fx, paper reports ~1.5x", gain)
	}
	// Proxied plateau near the paper's 2.4 GB/s.
	if p := res.Proxied.Points[last].GBps; p < 2.0 || p > 2.8 {
		t.Fatalf("proxied plateau %.2f GB/s, paper reports 2.4", p)
	}
}

func TestFig7Ordering(t *testing.T) {
	res, err := Fig7(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 5 {
		t.Fatalf("%d curves", len(res.Curves))
	}
	last := len(res.Curves[0].Points) - 1
	at := func(i int) float64 { return res.Curves[i].Points[last].GBps }
	direct, g2, g3, g4, g5 := at(0), at(1), at(2), at(3), at(4)
	if g2 > 1.2*direct {
		t.Fatalf("2 groups should be ~no improvement: direct %.2f, g2 %.2f", direct, g2)
	}
	if g3 <= g2 || g4 <= g3 {
		t.Fatalf("ordering broken: g2 %.2f g3 %.2f g4 %.2f", g2, g3, g4)
	}
	if g5 >= g4 {
		t.Fatalf("5 groups should degrade: g4 %.2f g5 %.2f", g4, g5)
	}
}

func TestFig8Fig9Histograms(t *testing.T) {
	h8 := Fig8(1)
	if h8.TotalCount() != 1024 {
		t.Fatalf("fig8 holds %d samples", h8.TotalCount())
	}
	// Uniform: no bucket more than 2.5x another's expected share.
	for i, c := range h8.Counts {
		if c > 1024/len(h8.Counts)*5/2 {
			t.Fatalf("fig8 bucket %d = %d, not flat", i, c)
		}
	}
	h9 := Fig9(1)
	if h9.TotalCount() != 1024 {
		t.Fatalf("fig9 holds %d samples", h9.TotalCount())
	}
	if h9.Counts[0] <= h9.Counts[len(h9.Counts)/2] {
		t.Fatal("fig9 head not heavy")
	}
}

func TestFig10QuickGains(t *testing.T) {
	res, err := Fig10(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.OursP1.Points {
		cores := res.OursP1.Points[i].Cores
		g1 := res.OursP1.Points[i].GBps / res.DefaultP1.Points[i].GBps
		g2 := res.OursP2.Points[i].GBps / res.DefaultP2.Points[i].GBps
		if g1 < 1.3 {
			t.Errorf("pattern 1 gain at %d cores = %.2fx, want >= 1.3 (paper: 2-3x)", cores, g1)
		}
		if g2 < 1.2 {
			t.Errorf("pattern 2 gain at %d cores = %.2fx, want >= 1.2 (paper: 1.5-2x)", cores, g2)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	res, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Ours.Points {
		gain := res.Ours.Points[i].GBps / res.Default.Points[i].GBps
		if gain < 1.1 {
			t.Errorf("HACC gain at %d cores = %.2fx, want >= 1.1 (paper: up to 1.5x)",
				res.Ours.Points[i].Cores, gain)
		}
	}
}

func TestAblationThresholdK2NeverWins(t *testing.T) {
	res, err := AblationThreshold(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Curves[0].Points { // k=2
		if pt.GBps > 1.1 {
			t.Fatalf("k=2 gain %.2f at %d bytes; Eq. 5 says k=2 cannot win", pt.GBps, pt.Bytes)
		}
	}
	// k=4 beats k=3 at the largest size.
	last := len(res.Curves[0].Points) - 1
	if res.Curves[2].Points[last].GBps <= res.Curves[1].Points[last].GBps {
		t.Fatal("k=4 should beat k=3 for large messages")
	}
}

func TestAblationPlacement(t *testing.T) {
	res, err := AblationPlacement(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.DisjointGBps <= res.NaiveGBps {
		t.Fatalf("disjoint placement %.2f should beat naive %.2f", res.DisjointGBps, res.NaiveGBps)
	}
	if res.DisjointGBps <= res.DirectGBps {
		t.Fatal("disjoint placement should beat direct at 64MB")
	}
}

func TestAblationAggCount(t *testing.T) {
	res, err := AblationAggCount(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Fixed {
		if f.PerPset == 1 && res.DynamicGBps <= f.GBps {
			t.Fatalf("dynamic %.2f should beat 1 aggregator per pset %.2f", res.DynamicGBps, f.GBps)
		}
	}
}

func TestAblationZones(t *testing.T) {
	res, err := AblationZones(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var dyn, det float64
	for _, z := range res.PerZone {
		switch z.Zone {
		case routing.ZoneUnrestricted:
			dyn = z.GBps
		case routing.ZoneDeterministic:
			det = z.GBps
		}
	}
	if dyn <= det {
		t.Fatalf("dynamic zone (%.2f) should beat deterministic (%.2f) for concurrent same-pair messages", dyn, det)
	}
}

func TestShapeForCores(t *testing.T) {
	for _, ws := range WeakScalingShapes {
		s, err := ShapeForCores(ws.Cores)
		if err != nil {
			t.Fatal(err)
		}
		if s.Size()*16 != ws.Cores {
			t.Fatalf("shape %v gives %d cores, want %d", s, s.Size()*16, ws.Cores)
		}
	}
	if _, err := ShapeForCores(12345); err == nil {
		t.Fatal("unknown core count accepted")
	}
}

func TestAblationRoundSync(t *testing.T) {
	res, err := AblationRoundSync(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.UnsyncedGBps <= res.SyncedGBps {
		t.Fatalf("removing round sync should help: synced %.2f, unsynced %.2f",
			res.SyncedGBps, res.UnsyncedGBps)
	}
	if res.OursGBps <= res.UnsyncedGBps {
		t.Fatalf("ours (%.2f) should still beat unsynced collective I/O (%.2f) via placement",
			res.OursGBps, res.UnsyncedGBps)
	}
}
