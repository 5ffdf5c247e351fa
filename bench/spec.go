package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json the program reads: metric names,
// units, directions and regression bounds. The file is the single list
// of metrics; a run that does not produce every metric it names, in
// the unit it names, fails.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when
// running the package's tests from bench/, from its parent.
func loadSpec() (*spec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		raw, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s spec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("bench: parse %s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("bench: BENCHMARK.json not found: %w", lastErr)
}

// check reports every metric the spec lists for this mode that the run
// did not produce, or produced in another unit, and every metric the
// run produced that the spec does not list.
func (s *spec) check(traced bool, got map[string]metric) error {
	want := s.EndToEnd
	if traced {
		want = s.PerLayer
	}
	listed := make(map[string]bool, len(want))
	var problems []string
	for _, m := range want {
		listed[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, spec says %s", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !listed[name] {
			problems = append(problems, "unlisted "+name)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench: metrics disagree with BENCHMARK.json: %v", problems)
	}
	return nil
}
