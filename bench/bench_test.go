package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"bgqflow/internal/serve"
)

// smokeWindow keeps every workload's smoke run, set-up included, to a
// fraction of a second.
const smokeWindow = 120 * time.Millisecond

func smoke(t *testing.T, workload string, traced bool, wrap func(planner) planner) (result, *run) {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(workload, 7, smokeWindow, traced, smokeScale)
	r.wrap = wrap
	res, err := execute(context.Background(), r, spec)
	if err != nil {
		t.Fatalf("%s (traced %v): %v", workload, traced, err)
	}
	return res, r
}

// Every workload, untraced and traced, runs on reduced shapes, verifies
// its outputs and reports exactly the metrics BENCHMARK.json lists.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			res, r := smoke(t, name, traced, nil)
			if !res.Correct || status(res) != 0 {
				t.Errorf("%s (traced %v): %d of %d failed: %v", name, traced, res.Failed, res.Attempted, r.errs)
			}
		}
	}
}

// flipByte is a fake planner that flips one byte of every pair plan
// the real one serves.
type flipByte struct{ planner }

func (f flipByte) PlanPair(ctx context.Context, req serve.PairRequest) (serve.PlanResult, error) {
	res, err := f.planner.PlanPair(ctx, req)
	if err == nil && res.OK() {
		res.Plan = append(json.RawMessage(nil), res.Plan...)
		res.Plan[len(res.Plan)/2] ^= 0x20
	}
	return res, err
}

func TestCorruptPlanFailsTheRun(t *testing.T) {
	for _, name := range []string{"serve-hot", "serve-cold", "serve-faults"} {
		res, _ := smoke(t, name, false, func(p planner) planner { return flipByte{p} })
		if res.Correct || res.Failed == 0 || status(res) == 0 {
			t.Errorf("%s: a flipped plan byte left the run correct=%v, failed=%d, status %d",
				name, res.Correct, res.Failed, status(res))
		}
	}
}
