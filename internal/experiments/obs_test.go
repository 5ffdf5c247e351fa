package experiments

import (
	"fmt"
	"strings"
	"testing"

	"bgqflow/internal/obs"
)

// r1Trace runs the quick R1 sweep with a recorder attached and the given
// worker count, returning a canonical rendering of everything recorded.
func r1Trace(t *testing.T, parallel int) (spans, instants []string, snap obs.MetricsSnapshot) {
	t.Helper()
	opt := Options{Quick: true, Parallel: parallel, Obs: obs.NewRecorder()}
	if _, err := R1(opt); err != nil {
		t.Fatal(err)
	}
	for _, s := range opt.Obs.Spans() {
		spans = append(spans, fmt.Sprintf("%s|%s|%.9f|%.9f|%v", s.Track, s.Name, float64(s.Begin), float64(s.End), s.Aborted))
	}
	for _, i := range opt.Obs.Instants() {
		instants = append(instants, fmt.Sprintf("%s|%s|%.9f", i.Track, i.Name, float64(i.At)))
	}
	return spans, instants, opt.Obs.Registry().Snapshot()
}

// TestR1ObserversDeterministicUnderParallelRunner pins the observability
// contract of the parallel experiment runner (run under -race in tier-1):
// every sweep point gets its own engine, sink tracks are per point and
// strategy, and the recorder sorts on simulation time — so the full
// recorded trace and the metrics snapshot are identical whether the sweep
// ran sequentially or on four workers, and events within each track fire
// in nondecreasing simulation-time order.
func TestR1ObserversDeterministicUnderParallelRunner(t *testing.T) {
	seqSpans, seqInstants, seqSnap := r1Trace(t, 1)
	parSpans, parInstants, parSnap := r1Trace(t, 4)

	if len(seqSpans) == 0 || len(seqInstants) == 0 {
		t.Fatalf("sequential run recorded %d spans, %d instants — expected both non-empty",
			len(seqSpans), len(seqInstants))
	}
	if len(parSpans) != len(seqSpans) {
		t.Fatalf("parallel run recorded %d spans, sequential %d", len(parSpans), len(seqSpans))
	}
	for i := range seqSpans {
		if parSpans[i] != seqSpans[i] {
			t.Fatalf("span %d differs:\n  seq: %s\n  par: %s", i, seqSpans[i], parSpans[i])
		}
	}
	if len(parInstants) != len(seqInstants) {
		t.Fatalf("parallel run recorded %d instants, sequential %d", len(parInstants), len(seqInstants))
	}
	for i := range seqInstants {
		if parInstants[i] != seqInstants[i] {
			t.Fatalf("instant %d differs:\n  seq: %s\n  par: %s", i, seqInstants[i], parInstants[i])
		}
	}
	for name, v := range seqSnap.Counters {
		if parSnap.Counters[name] != v {
			t.Fatalf("counter %q = %d parallel vs %d sequential", name, parSnap.Counters[name], v)
		}
	}

	// Per-track simulation-time order: sweep and failure observers (and
	// everything else filed on a track) must replay in nondecreasing time.
	lastBegin := make(map[string]float64)
	for _, s := range seqSpans {
		parts := strings.Split(s, "|")
		track := parts[0]
		var begin float64
		fmt.Sscanf(parts[2], "%f", &begin)
		if begin < lastBegin[track] {
			t.Fatalf("track %q goes back in time: %s", track, s)
		}
		lastBegin[track] = begin
	}

	// The quick sweep's structure shows through: per-point, per-strategy
	// tracks, with replans and failure instants on the failing points.
	var sawRecoveryFlows, sawReplan, sawFailureInstant bool
	for _, s := range seqSpans {
		if strings.HasPrefix(s, "r1/fail8/recovery/flows|") {
			sawRecoveryFlows = true
		}
		if strings.Contains(s, "|replan ") {
			sawReplan = true
		}
	}
	for _, i := range seqInstants {
		if strings.Contains(i, "/failures|") {
			sawFailureInstant = true
		}
	}
	if !sawRecoveryFlows || !sawReplan || !sawFailureInstant {
		t.Fatalf("trace missing expected structure: recoveryFlows=%v replan=%v failureInstant=%v",
			sawRecoveryFlows, sawReplan, sawFailureInstant)
	}
	if seqSnap.Counters["routing/cache/invalidations"] == 0 {
		t.Fatal("route-cache invalidation counter never published")
	}
}
