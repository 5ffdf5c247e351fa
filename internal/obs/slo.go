package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// SLO tracking over the rolling-window metrics: a spec names an
// objective ("p99 plan latency under 5ms", "shed ratio under 50%",
// "resume success over 99%"), the tracker evaluates every spec against
// the live windows and accumulates burn counters — how many evaluations
// have ever breached — so a soak script can gate on "zero breaches over
// the whole run" rather than one lucky final sample.

// SLO spec kinds.
const (
	// SLOLatencyP99 breaches when the window histogram's p99 exceeds
	// Threshold. Vacuous (never breaches) while the window is empty.
	SLOLatencyP99 = "latency_p99_max"
	// SLORatioMax breaches when Metric/Denominator exceeds Threshold.
	// Vacuous while the denominator window is empty.
	SLORatioMax = "ratio_max"
	// SLORatioMin breaches when Metric/Denominator falls below
	// Threshold. Vacuous while the denominator window is empty.
	SLORatioMin = "ratio_min"
)

// SLOSpec is one named objective over rolling-window metrics.
type SLOSpec struct {
	// Name labels the objective in verdicts and burn counters.
	Name string `json:"name"`
	// Kind is one of SLOLatencyP99, SLORatioMax, SLORatioMin.
	Kind string `json:"kind"`
	// Metric names the window histogram (latency kinds) or the numerator
	// window counter (ratio kinds).
	Metric string `json:"metric"`
	// Denominator names the ratio kinds' denominator window counter.
	Denominator string `json:"denominator,omitempty"`
	// Threshold is the objective's bound (same unit as the metric for
	// latency, a 0..1 fraction for ratios).
	Threshold float64 `json:"threshold"`
}

// Validate rejects malformed specs up front (bgqd flag parsing calls
// this so a typo exits 2 instead of silently never evaluating).
func (s SLOSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("obs: SLO spec needs a name")
	}
	if s.Metric == "" {
		return fmt.Errorf("obs: SLO %q needs a metric", s.Name)
	}
	switch s.Kind {
	case SLOLatencyP99:
		if s.Threshold <= 0 {
			return fmt.Errorf("obs: SLO %q threshold %g must be > 0", s.Name, s.Threshold)
		}
	case SLORatioMax, SLORatioMin:
		if s.Denominator == "" {
			return fmt.Errorf("obs: ratio SLO %q needs a denominator", s.Name)
		}
		if s.Threshold < 0 || s.Threshold > 1 {
			return fmt.Errorf("obs: ratio SLO %q threshold %g outside [0,1]", s.Name, s.Threshold)
		}
	default:
		return fmt.Errorf("obs: SLO %q has unknown kind %q", s.Name, s.Kind)
	}
	return nil
}

// SLOVerdict is one objective's evaluation.
type SLOVerdict struct {
	Name      string  `json:"name"`
	Kind      string  `json:"kind"`
	Metric    string  `json:"metric"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Breached reports the current evaluation's outcome.
	Breached bool `json:"breached"`
	// Vacuous marks an evaluation with no data in the window (never a
	// breach: an idle daemon is not out of SLO).
	Vacuous bool `json:"vacuous,omitempty"`
	// Breaches and Evals are the tracker's cumulative burn counters;
	// BurnRate is their ratio. A soak gate wants Breaches == 0.
	Breaches int64   `json:"breaches"`
	Evals    int64   `json:"evals"`
	BurnRate float64 `json:"burnRate"`
}

// SLOTracker evaluates a fixed spec set against one registry's window
// metrics and accumulates per-objective burn counters. Burn counters are
// mirrored into the registry as slo/<name>/breaches and
// slo/<name>/evals, so they ride along in every metrics export. Safe for
// concurrent use.
type SLOTracker struct {
	reg   *Registry
	specs []SLOSpec

	mu       sync.Mutex
	breaches []int64
	evals    []int64
}

// NewSLOTracker builds a tracker; every spec must Validate.
func NewSLOTracker(reg *Registry, specs []SLOSpec) (*SLOTracker, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return &SLOTracker{
		reg:      reg,
		specs:    append([]SLOSpec(nil), specs...),
		breaches: make([]int64, len(specs)),
		evals:    make([]int64, len(specs)),
	}, nil
}

// Evaluate runs every objective against the current windows, bumps the
// burn counters, and returns the verdicts in spec order.
func (t *SLOTracker) Evaluate() []SLOVerdict {
	out := make([]SLOVerdict, len(t.specs))
	for i, spec := range t.specs {
		v := SLOVerdict{Name: spec.Name, Kind: spec.Kind, Metric: spec.Metric, Threshold: spec.Threshold}
		switch spec.Kind {
		case SLOLatencyP99:
			h, ok := find[*WindowHistogram](t.reg, spec.Metric)
			if !ok {
				v.Vacuous = true
				break
			}
			sum := h.Summary()
			if sum.N == 0 {
				v.Vacuous = true
				break
			}
			v.Value = sum.P99
			v.Breached = v.Value > spec.Threshold
		case SLORatioMax, SLORatioMin:
			num, okN := find[*WindowCounter](t.reg, spec.Metric)
			den, okD := find[*WindowCounter](t.reg, spec.Denominator)
			if !okN || !okD {
				v.Vacuous = true
				break
			}
			d := den.Total()
			if d == 0 {
				v.Vacuous = true
				break
			}
			v.Value = float64(num.Total()) / float64(d)
			if spec.Kind == SLORatioMax {
				v.Breached = v.Value > spec.Threshold
			} else {
				v.Breached = v.Value < spec.Threshold
			}
		}
		out[i] = v
	}

	t.mu.Lock()
	for i := range out {
		t.evals[i]++
		if out[i].Breached {
			t.breaches[i]++
		}
		out[i].Evals = t.evals[i]
		out[i].Breaches = t.breaches[i]
		out[i].BurnRate = float64(out[i].Breaches) / float64(out[i].Evals)
	}
	t.mu.Unlock()

	for i, v := range out {
		t.reg.Counter("slo/" + t.specs[i].Name + "/evals").Inc()
		if v.Breached {
			t.reg.Counter("slo/" + t.specs[i].Name + "/breaches").Inc()
		}
	}
	return out
}

// SLOSnapshot is the wire form of a tracker evaluation (the GET /v1/slo
// body, and the -slo-out artifact bgqload archives).
type SLOSnapshot struct {
	Enabled   bool         `json:"enabled"`
	WindowSec float64      `json:"windowSec,omitempty"`
	Verdicts  []SLOVerdict `json:"verdicts,omitempty"`
}

// Breached reports whether any objective has ever breached (the soak
// gate condition).
func (s SLOSnapshot) Breached() bool {
	for _, v := range s.Verdicts {
		if v.Breaches > 0 {
			return true
		}
	}
	return false
}

// WriteJSON serializes the snapshot, indented, with a trailing newline.
func (s SLOSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSLOSnapshot parses a previously written snapshot.
func ReadSLOSnapshot(r io.Reader) (SLOSnapshot, error) {
	var s SLOSnapshot
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}
