// Package obs is the unified observability layer: a metrics registry
// (counters, gauges, histograms), a simulation-clock event recorder
// (named spans, instant events, counter tracks), and exporters —
// Chrome/Perfetto trace-event JSON loadable in ui.perfetto.dev, a flat
// metrics JSON snapshot, and time-bucketed per-link utilization
// timelines fed by the flow engine's progress charges.
//
// The layer is strictly pay-for-what-you-use. Components hold a Sink (or
// a *Recorder) that is nil when observability is off, and every
// instrumentation site is guarded by a single nil check, so the netsim
// hot path keeps its zero-allocation steady state (guarded by
// TestSubmitReleaseZeroAlloc and the sink-on/off benchmark pair in
// internal/netsim). The package depends only on the stdlib plus the
// repo's sim and stats packages; it must never import netsim or the
// planning layers (they import it).
//
// All timestamps are virtual (sim.Time, seconds since the start of the
// run); the Perfetto exporter renders them as microseconds.
package obs

import "bgqflow/internal/sim"

// SpanID identifies a span opened with SpanBegin so it can be closed.
// The zero value is never issued.
type SpanID uint64

// Sink is the engine-facing telemetry interface and the flow engine's
// only observation hook. The flow engine calls it at every lifecycle
// edge; *Recorder.EngineSink adapts a
// Recorder into one with every event filed under a track prefix, so
// several engines (e.g. the parallel experiment runner's sweep points)
// can share one Recorder without colliding.
//
// Implementations must be safe for use from the single goroutine driving
// one engine; a Recorder-backed sink is additionally safe for many
// engines on many goroutines. Callers installing a Sink must pass a
// genuinely nil interface — not a typed nil pointer — to disable it.
type Sink interface {
	// FlowActivated fires when a flow's transfer starts (sender overhead
	// paid, links claimed).
	FlowActivated(now sim.Time, id int, label string)

	// FlowEnded fires when a flow's wire occupancy ends: at transfer end
	// (last byte left the wire; aborted=false) or at a failure instant
	// that cut the flow mid-flight (aborted=true). activated is the time
	// FlowActivated fired; [activated, now] is the wire span.
	FlowEnded(now, activated sim.Time, id int, label string, bytes int64, aborted bool)

	// SweepDone fires after each rate-reallocation sweep with the number
	// of flows and links that were rebalanced. full distinguishes a
	// whole-component sweep (an incremental fallback) from an
	// incremental dirty-region sweep, where flows/links count only the
	// re-leveled region.
	SweepDone(now sim.Time, flows, links int, full bool)

	// FailureApplied fires after a scheduled failure event has been
	// applied and its victims aborted. node is meaningful when isNode.
	FailureApplied(now sim.Time, node int, isNode bool, links int)

	// LinkWindow attributes bytes carried by a link to the window
	// [from, to]. The engine calls it whenever it charges transfer
	// progress (waterfill sweeps, transfer end, aborts), so integrating
	// the windows reproduces the engine's cumulative link byte counters
	// with a time dimension.
	LinkWindow(link int, from, to sim.Time, bytes float64)
}
