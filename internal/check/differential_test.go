package check

import (
	"os"
	"path/filepath"
	"testing"

	"bgqflow/internal/netsim"
)

// TestDifferentialSeeds drives the generator's first 200 seeds through
// both engines (the ISSUE's >= 200 scenario floor for make check). Any
// divergence is an engine bug — archive the failing seed under
// testdata/divergences and fix it.
func TestDifferentialSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is seconds-long; skipped in -short")
	}
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed)
		if divs := RunDifferential(sc); len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			t.Fatalf("seed %d: %d divergences (scenario: %d flows on %v, %d link / %d node failures)",
				seed, len(divs), len(sc.Flows), sc.Shape, len(sc.LinkFailures), len(sc.NodeFailures))
		}
	}
}

// TestDifferentialSparseSeeds drives the larger sparse generator through
// both engines — the regime where the dirty-set cutoff actually prunes
// (the 200-seed suite above is small enough that regions often span the
// whole component).
func TestDifferentialSparseSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("sparse differential sweep is seconds-long; skipped in -short")
	}
	for seed := int64(0); seed < 40; seed++ {
		sc := GenerateSparse(seed)
		if divs := RunDifferential(sc); len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			t.Fatalf("seed %d: %d divergences (%d flows on %v, %d link / %d node failures)",
				seed, len(divs), len(sc.Flows), sc.Shape, len(sc.LinkFailures), len(sc.NodeFailures))
		}
	}
}

// TestSparseSeedsExerciseCutoff guards the suite above against
// vacuousness: the sparse scenarios must actually take the incremental
// path (many incremental sweeps, few fallbacks), otherwise the
// comparison would only be re-testing full re-levels.
func TestSparseSeedsExerciseCutoff(t *testing.T) {
	var full, inc int64
	for seed := int64(0); seed < 5; seed++ {
		var e *netsim.Engine
		if _, err := RunNetsim(GenerateSparse(seed), func(eng *netsim.Engine) { e = eng }); err != nil {
			t.Fatal(err)
		}
		f, i := e.SweepStats()
		full, inc = full+f, inc+i
	}
	if inc == 0 || inc < 10*full {
		t.Fatalf("sweeps: %d incremental vs %d full — sparse generator is not exercising the cutoff", inc, full)
	}
}

// TestDivergenceCorpus replays every archived divergence byte-
// identically: each file under testdata/divergences is a scenario that
// once split the engines (see its README for the bug each one caught)
// and must now agree forever.
func TestDivergenceCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "divergences", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no archived divergences; the corpus must hold at least one regression")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			sc, err := ReadScenario(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range RunDifferential(sc) {
				t.Errorf("%s", d)
			}
		})
	}
}

// TestGenerateDeterministic pins the property the corpus depends on: the
// same seed always yields the same scenario.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, 1 << 40} {
		a, b := Generate(seed), Generate(seed)
		aj, bj := mustJSON(t, a), mustJSON(t, b)
		if aj != bj {
			t.Fatalf("seed %d: two Generate calls differ", seed)
		}
	}
}

func mustJSON(t *testing.T, sc Scenario) string {
	t.Helper()
	dir := t.TempDir()
	p := filepath.Join(dir, "sc.json")
	if err := WriteScenario(p, sc); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestScenarioRoundTrip pins JSON round-tripping: an archived scenario
// must replay the exact run that produced it.
func TestScenarioRoundTrip(t *testing.T) {
	sc := Generate(7)
	p := filepath.Join(t.TempDir(), "sc.json")
	if err := WriteScenario(p, sc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, sc), mustJSON(t, back)
	if a != b {
		t.Fatalf("scenario changed across a write/read cycle")
	}
}
