package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"bgqflow/internal/obs"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	// window is how long the run measures (--seconds).
	window time.Duration
	// traced selects the per-layer run: the load phases are followed by
	// the layer pass, and the run reports per-layer metrics only.
	traced bool
	// workers bounds requests in flight: the host's CPU count.
	workers int
	sc      scale
	// rec holds the trace of a traced run; nil otherwise.
	rec *obs.WallRecorder
	// wrap, when set, wraps the serve workloads' client after set-up
	// (tests use it to substitute a faulty planner).
	wrap func(planner) planner

	metrics   map[string]metric
	attempted int
	failed    int
	errs      []string
}

func newRun(workload string, seed int64, window time.Duration, traced bool, sc scale) *run {
	r := &run{
		workload: workload,
		seed:     seed,
		window:   window,
		traced:   traced,
		workers:  runtime.NumCPU(),
		sc:       sc,
		metrics:  make(map[string]metric),
	}
	if traced {
		r.rec = obs.NewWallRecorder(1 << 17)
		r.rec.SetProcessName("bench (wall clock)")
	}
	return r
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check counts one verified output; a non-nil err makes it a failure.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure of an output already counted as attempted.
func (r *run) fail(err error) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

// absorb adds a load phase's counts and failures to the run.
func (r *run) absorb(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, e := range p.errs {
		if len(r.errs) < maxErrs {
			r.errs = append(r.errs, e)
		}
	}
}

// result assembles the run's result; a metric that is not a finite
// number means the run could not measure it, which is an error.
func (r *run) result() (result, error) {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("bench: %s has no value (%v)", name, m.Value)
		}
	}
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *run) error{
	"serve-hot":    runServe,
	"serve-cold":   runServe,
	"serve-faults": runServe,
	"sim-mira":     runSim,
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" && string(f[2]) == "kB" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: peak RSS: no VmHWM in /proc/self/status")
}
