package experiments

import (
	"sync/atomic"
	"testing"

	"bgqflow/internal/netsim"
)

// Every runner family must route engine construction through
// Options.EngineHook — it is the only seam the -check auditors have.
func TestEngineHookFiresAcrossRunners(t *testing.T) {
	runs := []struct {
		name string
		run  func(opt Options) error
	}{
		{"fig5", func(opt Options) error { _, err := Fig5(opt); return err }},
		{"fig10", func(opt Options) error { _, err := Fig10(opt); return err }},
		{"r1", func(opt Options) error { _, err := R1(opt); return err }},
		{"ablations/zones", func(opt Options) error { _, err := AblationZones(opt); return err }},
		{"extensions/validation", func(opt Options) error { _, err := ExtValidation(opt); return err }},
		{"extensions/mapping", func(opt Options) error { _, err := ExtMapping(opt); return err }},
	}
	for _, r := range runs {
		var engines atomic.Int64
		opt := Options{Quick: true}
		opt.EngineHook = func(e *netsim.Engine) {
			if e == nil {
				t.Error("hook received nil engine")
			}
			engines.Add(1)
		}
		if err := r.run(opt); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if engines.Load() == 0 {
			t.Errorf("%s: EngineHook never fired", r.name)
		}
	}
}
