// Command bgqload drives a bgqd plan-serving daemon with a seeded,
// deterministic request mix and reports latency, throughput, shed-rate,
// and coalescing statistics. It is the soak/stress driver behind
// `make soak`.
//
// Usage:
//
//	bgqload -addr host:port|unix:///path [-duration 30s] [-mode open|closed]
//	        [-rps 500] [-concurrency 8] [-seed 1] [-shape 2x2x4x4x2]
//	        [-patterns uniform,neighbor,shift,sparse] [-agg-every N]
//	        [-json out.json] [-baseline prev.json] [-p99-ratio 5]
//	        [-max-shed-rate 0.5] [-require-coalesce] [-selftest]
//	        [-trace-out trace.json] [-slo-out slo.json] [-require-slo]
//
//	bgqload -addrs r0=addr,r1=addr,r2=addr [-fault-every N]
//	        [-max-replica-share 0.8] [plan-mode flags as above]
//
//	bgqload -sessions N [-addr ... | -selftest] [-seed S] [-shape ...]
//	        [-pattern burst] [-concurrency 0] [-pace-us 500]
//	        [-campaign-every 5] [-batch-every 0] [-drop-every 4]
//	        [-fault-events 2] [-no-verify] [-session-timeout 2m]
//	        [-min-resumes N] [-min-pushed-faults N] [-json out.json]
//	        [-trace-out trace.json] [-slo-out slo.json] [-require-slo]
//
// Open-loop mode issues requests on a fixed-rate clock (-rps); closed
// loop keeps -concurrency workers saturated. The mix is deterministic in
// -seed: hot pairs from the sparse patterns repeat as identical
// requests, exercising the daemon's cache and request coalescing.
//
// Soak gates (exit 1 when violated): any 5xx or transport error, shed
// rate above -max-shed-rate, p99 above the -baseline report's p99 times
// -p99-ratio, and — with -require-coalesce — a server that reports no
// cache hits or coalesced requests at all. -json archives the full
// report (client stats plus the daemon's /metrics snapshot). A single
// daemon is a cluster of one, so its report's by_replica has one entry.
//
// Ring mode: -addrs lists a bgqd cluster's replicas ("id=addr" pairs,
// or bare addresses that get IDs r0, r1, ...; the IDs must match the
// daemons' -replica-id flags) and routes every request over the same
// consistent-hash ring the cluster uses, failing over to successors
// when a replica dies. -fault-every posts a seeded fault event
// alongside every Nth request so the gossiped fault-epoch plane is
// exercised under load, and the report gains a per-replica breakdown
// (requests, shed, p99, share of traffic). Ring gates: any response
// served with a stale fault-epoch vector fails the run, and
// -max-replica-share fails it when one replica answers more than that
// fraction of requests (a hot shard). Telemetry artifacts (-trace-out,
// -slo-out, -require-slo) and -sessions are not supported in ring mode.
//
// -sessions N switches bgqload into the chaos-soak driver for resilient
// transfer sessions: N concurrent sessions with seeded fault campaigns,
// forced disconnects, server-side fault events, and optional combining,
// every report byte-verified against a direct-run oracle. Gates (exit 1
// when violated): zero lost, zero duplicated, zero mismatched sessions,
// all N completed, plus the -min-resumes / -min-pushed-faults floors.
// -json archives the session report (the SESSIONS_<date>.json format).
//
// Telemetry: -trace-out enables a client-side wall recorder, stamps
// every request with a trace ID, and after the run merges the client
// trace with the daemon's /v1/trace snapshot into one Perfetto file —
// client retry spans over server queue/compute/session spans over the
// sim-clock engine timeline, correlated by trace ID (the daemon needs
// -trace-events > 0 for its half; without it the file carries the
// client half alone). -slo-out archives the daemon's /v1/slo verdict
// snapshot (the SLO_<date>.json artifact), and -require-slo turns the
// verdicts into a gate: any objective with a nonzero cumulative breach
// count — or a daemon with no objectives configured — fails the run.
// Two helpers cover daemon restarts: `bgqload -dump-trace -addr ...
// -trace-out pre.json` fetches a daemon's /v1/trace snapshot and exits,
// and -trace-extra pre.json merges that dump into the final artifact —
// the chaos soak uses the pair to preserve the first daemon's server
// spans across its SIGTERM.
//
// -selftest spins an in-process daemon on a loopback port and runs the
// load against it — no external bgqd needed; used by `make verify`.
// The selftest daemon enables tracing and a generous objective set
// when -trace-out / -require-slo ask for them. Flags are validated up
// front; a bad flag exits 2 with a one-line error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"bgqflow/internal/cluster"
	"bgqflow/internal/loadgen"
	"bgqflow/internal/obs"
	"bgqflow/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "daemon address: host:port, http://..., or unix:///path")
	addrs := flag.String("addrs", "", "comma-separated cluster replicas (id=addr pairs or bare addresses); enables ring mode")
	faultEvery := flag.Int("fault-every", 0, "post a seeded fault event alongside every Nth request (0 disables)")
	maxReplicaShare := flag.Float64("max-replica-share", 0, "ring gate: fail when one replica answers more than this fraction of requests (0 disables)")
	duration := flag.Duration("duration", 30*time.Second, "load duration")
	mode := flag.String("mode", "open", "load mode: open (fixed-rate arrivals) or closed (fixed workers)")
	rps := flag.Float64("rps", 500, "open-loop arrival rate (requests/sec)")
	concurrency := flag.Int("concurrency", 8, "closed-loop worker count")
	seed := flag.Int64("seed", 1, "request-mix seed")
	shape := flag.String("shape", "", "torus shape for plan requests (default 2x2x4x4x2)")
	patterns := flag.String("patterns", "", "comma-separated pair patterns (default all: uniform,neighbor,shift,sparse)")
	aggEvery := flag.Int("agg-every", 0, "make every Nth request an aggregation plan (0 = none)")
	jsonOut := flag.String("json", "", "write the full report JSON to this file")
	baseline := flag.String("baseline", "", "previous report to gate p99 against")
	p99Ratio := flag.Float64("p99-ratio", 5, "fail when p99 exceeds baseline p99 times this ratio")
	maxShed := flag.Float64("max-shed-rate", 0.5, "fail when shed/requests exceeds this (0 disables)")
	requireCoalesce := flag.Bool("require-coalesce", false, "fail when the server reports zero cache hits and zero coalesced requests")
	selftest := flag.Bool("selftest", false, "spin an in-process daemon on loopback and load it (ignores -addr)")
	sessions := flag.Int("sessions", 0, "run N resilient transfer sessions instead of the plan-request mix (0 = plan mode)")
	pattern := flag.String("pattern", "", "session-mode pair pattern (default burst)")
	paceUS := flag.Int("pace-us", 500, "session-mode pacing per safe point, microseconds")
	campaignEvery := flag.Int("campaign-every", 5, "give every Nth session a seeded fault campaign (0 disables)")
	batchEvery := flag.Int("batch-every", 0, "mark every Nth session combinable (0 disables; needs a daemon batch window)")
	dropEvery := flag.Int("drop-every", 4, "force a disconnect every N frames on every third session (0 disables)")
	faultEvents := flag.Int("fault-events", 2, "server-side fault events to post while sessions run (0 disables)")
	noVerify := flag.Bool("no-verify", false, "skip the byte-exact oracle replay of every session report")
	sessionTimeout := flag.Duration("session-timeout", 2*time.Minute, "per-session budget")
	minResumes := flag.Int("min-resumes", 0, "session gate: fail with fewer than N stream resumes")
	minPushed := flag.Int("min-pushed-faults", 0, "session gate: fail with fewer than N pushed mid-session faults")
	traceOut := flag.String("trace-out", "", "write the merged client+daemon Perfetto trace to this file")
	traceExtra := flag.String("trace-extra", "", "extra Perfetto snapshot to merge into -trace-out (e.g. a pre-restart daemon dump)")
	sloOut := flag.String("slo-out", "", "write the daemon's SLO verdict snapshot to this file")
	requireSLO := flag.Bool("require-slo", false, "fail when any daemon SLO recorded a breach (or no objectives are configured)")
	dumpTrace := flag.Bool("dump-trace", false, "fetch the daemon's /v1/trace snapshot, write it to -trace-out, and exit")
	flag.Parse()

	if *dumpTrace {
		if len(flag.Args()) > 0 {
			fmt.Fprintf(os.Stderr, "bgqload: unexpected arguments: %v\n", flag.Args())
			os.Exit(2)
		}
		if *addr == "" || *traceOut == "" {
			fmt.Fprintln(os.Stderr, "bgqload: -dump-trace needs -addr and -trace-out")
			os.Exit(2)
		}
		client, err := serve.NewClient(*addr)
		if err != nil {
			fatal("%v", err)
		}
		raw, err := client.TraceJSON(context.Background())
		if err != nil {
			fatal("dump-trace: %v", err)
		}
		if err := os.WriteFile(*traceOut, raw, 0o644); err != nil {
			fatal("dump-trace: %v", err)
		}
		fmt.Printf("bgqload: daemon trace dumped to %s\n", *traceOut)
		return
	}

	if *sessions != 0 {
		if *addrs != "" {
			fmt.Fprintln(os.Stderr, "bgqload: -sessions does not support ring mode (-addrs)")
			os.Exit(2)
		}
		// -concurrency defaults to 8 for the plan mix; in session mode an
		// unset flag means "all sessions at once" (the peak-concurrency
		// soak shape), so only an explicit value caps the fleet.
		sessConc := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "concurrency" {
				sessConc = *concurrency
			}
		})
		sopts := loadgen.SessionOptions{
			Sessions:      *sessions,
			Concurrency:   sessConc,
			Seed:          *seed,
			Shape:         *shape,
			Pattern:       *pattern,
			PaceUS:        *paceUS,
			CampaignEvery: *campaignEvery,
			BatchEvery:    *batchEvery,
			DropEvery:     *dropEvery,
			FaultEvents:   *faultEvents,
			Verify:        !*noVerify,
			Timeout:       *sessionTimeout,
		}
		if err := validateSessions(*addr, *selftest, sopts, *minResumes, *minPushed, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "bgqload: %v\n", err)
			os.Exit(2)
		}
		runSessionMode(*addr, *selftest, sopts, *minResumes, *minPushed, *jsonOut,
			telemetryOpts{traceOut: *traceOut, traceExtra: *traceExtra, sloOut: *sloOut, requireSLO: *requireSLO})
		return
	}

	opts := loadgen.Options{
		Mode:        *mode,
		Duration:    *duration,
		RPS:         *rps,
		Concurrency: *concurrency,
		Seed:        *seed,
		Shape:       *shape,
		AggEvery:    *aggEvery,
		FaultEvery:  *faultEvery,
	}
	if *patterns != "" {
		opts.Patterns = strings.Split(*patterns, ",")
	}
	members, baseP99, err := validate(*addr, *addrs, *selftest, *baseline, *p99Ratio, *maxShed, *maxReplicaShare,
		telemetryOpts{traceOut: *traceOut, traceExtra: *traceExtra, sloOut: *sloOut, requireSLO: *requireSLO}, opts, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bgqload: %v\n", err)
		os.Exit(2)
	}

	tel := telemetryOpts{traceOut: *traceOut, traceExtra: *traceExtra, sloOut: *sloOut, requireSLO: *requireSLO}
	var (
		client loadgen.Planner
		ringC  *serve.RingClient
		direct *serve.Client
		target string
	)
	if *addrs != "" {
		ringC, err = serve.NewRingClient(members)
		if err != nil {
			fatal("%v", err)
		}
		up := ringC.Health(context.Background())
		if len(up) == 0 {
			fatal("no ring replica reachable (of %d in -addrs)", len(members))
		}
		fmt.Printf("bgqload: ring of %d replicas, %d up (%s)\n", len(members), len(up), strings.Join(up, ", "))
		client = ringC
		target = fmt.Sprintf("ring[%d]", len(members))
	} else {
		target = *addr
		var cleanup func()
		if *selftest {
			target, cleanup, err = startInProcess(tel.selftestConfig(serve.Config{}))
			if err != nil {
				fatal("selftest: %v", err)
			}
			defer cleanup()
		}
		direct, err = serve.NewClient(target)
		if err != nil {
			fatal("%v", err)
		}
		tel.installTracer(direct)
		if err := direct.Health(context.Background()); err != nil {
			fatal("daemon not reachable at %s: %v", target, err)
		}
		client = direct
	}

	rep, err := loadgen.Run(context.Background(), client, opts)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("bgqload: %s %v against %s: %d requests (%.0f/s), %d ok, %d shed (%.1f%%), %d 4xx, %d 5xx, %d transport errors\n",
		rep.Mode, *duration, target, rep.Requests, rep.AchievedRPS,
		rep.OK, rep.Shed, rep.ShedRate*100, rep.Status4xx, rep.Status5xx, rep.TransportErrors)
	fmt.Printf("bgqload: latency p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms; server computed %d plans, %d cache hits, %d coalesced (%.0f%% saved)\n",
		rep.Latency.P50MS, rep.Latency.P90MS, rep.Latency.P99MS, rep.Latency.MaxMS,
		rep.PlansComputed, rep.CacheHits, rep.Coalesced, rep.CoalesceRate*100)
	if len(rep.Phases) > 0 {
		fmt.Printf("bgqload: phase p99 (ms): connect %.2f, queue %.2f, compute %.2f, stream %.2f\n",
			rep.Phases["connect"].P99MS, rep.Phases["queue"].P99MS,
			rep.Phases["compute"].P99MS, rep.Phases["stream"].P99MS)
	}
	if ringC != nil {
		ids := make([]string, 0, len(rep.ByReplica))
		for id := range rep.ByReplica {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			rs := rep.ByReplica[id]
			fmt.Printf("bgqload: replica %s: %d requests (%.0f%% share), %d ok, %d shed, %d errors, p99 %.2fms\n",
				id, rs.Requests, rs.Share*100, rs.OK, rs.Shed, rs.Errors, rs.Latency.P99MS)
		}
		fmt.Printf("bgqload: ring: %d faults posted, %d fault errors, %d stale responses served\n",
			rep.FaultsPosted, rep.FaultErrors, rep.StaleServed)
	}
	if direct != nil {
		tel.writeArtifacts(direct, rep.SLO)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal("json: %v", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fatal("json: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("json: %v", err)
		}
		fmt.Printf("bgqload: report written to %s\n", *jsonOut)
	}

	crit := loadgen.Criteria{
		MaxShedRate:     *maxShed,
		RequireCoalesce: *requireCoalesce,
		MinRequests:     1,
		RequireSLO:      *requireSLO,
		MaxReplicaShare: *maxReplicaShare,
	}
	if baseP99 > 0 {
		crit.MaxP99MS = baseP99 * *p99Ratio
	}
	if err := rep.Check(crit); err != nil {
		fatal("%v", err)
	}
	fmt.Println("bgqload: all soak gates passed")
}

// validate rejects bad flags up front (exit 2), reading the baseline's
// p99 and parsing the ring membership while at it so a missing or
// corrupt baseline fails before the 30-second load runs, not after.
func validate(addr, addrs string, selftest bool, baseline string, p99Ratio, maxShed, maxReplicaShare float64,
	tel telemetryOpts, opts loadgen.Options, extra []string) (members []cluster.Member, baseP99 float64, err error) {
	if len(extra) > 0 {
		return nil, 0, fmt.Errorf("unexpected arguments: %v", extra)
	}
	if addrs != "" {
		if addr != "" {
			return nil, 0, fmt.Errorf("-addr and -addrs are mutually exclusive")
		}
		if selftest {
			return nil, 0, fmt.Errorf("-selftest and -addrs are mutually exclusive")
		}
		if tel.traceOut != "" || tel.sloOut != "" || tel.requireSLO {
			return nil, 0, fmt.Errorf("telemetry artifacts (-trace-out/-slo-out/-require-slo) are not supported in ring mode")
		}
		if members, err = parseMembers(addrs); err != nil {
			return nil, 0, err
		}
	} else if addr == "" && !selftest {
		return nil, 0, fmt.Errorf("-addr is required (or use -selftest / -addrs)")
	}
	if p99Ratio <= 0 {
		return nil, 0, fmt.Errorf("-p99-ratio must be > 0, got %g", p99Ratio)
	}
	if maxShed < 0 || maxShed > 1 {
		return nil, 0, fmt.Errorf("-max-shed-rate must be in [0,1], got %g", maxShed)
	}
	if maxReplicaShare < 0 || maxReplicaShare > 1 {
		return nil, 0, fmt.Errorf("-max-replica-share must be in [0,1], got %g", maxReplicaShare)
	}
	// Validate mode/shape/patterns/duration via the loadgen mix builder.
	if _, err := loadgen.BuildMix(opts); err != nil {
		return nil, 0, err
	}
	if baseline != "" {
		f, err := os.Open(baseline)
		if err != nil {
			return nil, 0, fmt.Errorf("baseline: %v", err)
		}
		defer f.Close()
		base, err := loadgen.ReadReport(f)
		if err != nil {
			return nil, 0, fmt.Errorf("baseline %s: %v", baseline, err)
		}
		if base.Latency.P99MS <= 0 {
			return nil, 0, fmt.Errorf("baseline %s has no p99 latency", baseline)
		}
		baseP99 = base.Latency.P99MS
	}
	return members, baseP99, nil
}

// parseMembers turns the -addrs list into ring members. Entries are
// "id=addr" pairs; a bare address gets the positional ID r<i>. The IDs
// must match the daemons' -replica-id flags — they are what the ring
// hashes, so mismatched IDs would route every request to the wrong
// replica's cache shard (still correct, just cold).
func parseMembers(addrs string) ([]cluster.Member, error) {
	var members []cluster.Member
	seen := make(map[string]bool)
	for i, entry := range strings.Split(addrs, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("-addrs has an empty entry")
		}
		id, a, ok := strings.Cut(entry, "=")
		if !ok {
			id, a = fmt.Sprintf("r%d", i), entry
		}
		if id == "" || a == "" {
			return nil, fmt.Errorf("-addrs entry %q: want id=addr", entry)
		}
		if seen[id] {
			return nil, fmt.Errorf("-addrs has duplicate replica ID %q", id)
		}
		seen[id] = true
		members = append(members, cluster.Member{ID: id, Addr: a})
	}
	return members, nil
}

// validateSessions rejects bad session-mode flags up front (exit 2).
func validateSessions(addr string, selftest bool, o loadgen.SessionOptions, minResumes, minPushed int, extra []string) error {
	if len(extra) > 0 {
		return fmt.Errorf("unexpected arguments: %v", extra)
	}
	if addr == "" && !selftest {
		return fmt.Errorf("-addr is required (or use -selftest)")
	}
	if minResumes < 0 {
		return fmt.Errorf("-min-resumes must be >= 0, got %d", minResumes)
	}
	if minPushed < 0 {
		return fmt.Errorf("-min-pushed-faults must be >= 0, got %d", minPushed)
	}
	return loadgen.ValidateSessionOptions(o)
}

// runSessionMode drives the resilient-session chaos soak and applies
// its gates.
func runSessionMode(addr string, selftest bool, o loadgen.SessionOptions, minResumes, minPushed int, jsonOut string, tel telemetryOpts) {
	target := addr
	if selftest {
		// The in-process daemon gets a batch window so -batch-every has
		// something to combine against; it is inert without Batch requests.
		t, cleanup, err := startInProcess(tel.selftestConfig(serve.Config{BatchWindow: 50 * time.Millisecond}))
		if err != nil {
			fatal("selftest: %v", err)
		}
		defer cleanup()
		target = t
	}
	client, err := serve.NewClient(target)
	if err != nil {
		fatal("%v", err)
	}
	tel.installTracer(client)
	if err := client.Health(context.Background()); err != nil {
		fatal("daemon not reachable at %s: %v", target, err)
	}

	rep, err := loadgen.RunSessions(context.Background(), client, o)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("bgqload: %d sessions (%s/%s, seed %d) against %s in %.1fs: %d completed, %d failed, %d lost, %d mismatched, %d duplicated\n",
		rep.Sessions, rep.Shape, rep.Pattern, rep.Seed, target, rep.WallSec,
		rep.Completed, rep.Failed, rep.Lost, rep.Mismatched, rep.Duplicated)
	fmt.Printf("bgqload: resilience: %d resumes, %d restarts, %d pushed faults, %d combined sessions, peak %d concurrent, %d fault events posted\n",
		rep.Resumes, rep.Restarts, rep.PushedFaults, rep.BatchedMembers, rep.PeakConcurrent, rep.FaultsPosted)

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fatal("json: %v", err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fatal("json: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("json: %v", err)
		}
		fmt.Printf("bgqload: session report written to %s\n", jsonOut)
	}

	tel.writeArtifacts(client, rep.SLO)

	if err := rep.Check(loadgen.SessionCriteria{
		MinCompleted:    rep.Sessions,
		MinResumes:      minResumes,
		MinPushedFaults: minPushed,
		RequireVerified: o.Verify,
		RequireSLO:      tel.requireSLO,
	}); err != nil {
		fatal("%v", err)
	}
	fmt.Println("bgqload: all session gates passed")
}

// telemetryOpts bundles the cross-mode trace/SLO flags.
type telemetryOpts struct {
	traceOut   string
	traceExtra string
	sloOut     string
	requireSLO bool
}

// selftestConfig upgrades the in-process daemon with tracing and a
// generous objective set when the flags ask for telemetry — a selftest
// must be able to exercise the whole plane without an external bgqd.
func (t telemetryOpts) selftestConfig(cfg serve.Config) serve.Config {
	if t.traceOut != "" {
		cfg.TraceEvents = 1 << 16
	}
	if t.requireSLO || t.sloOut != "" {
		cfg.StatsWindow = 10 * time.Second
		cfg.SLOs = []obs.SLOSpec{
			{Name: "plan_p99", Kind: obs.SLOLatencyP99,
				Metric: "serve/window/plan_latency_ms", Threshold: 60_000},
			{Name: "shed_ratio", Kind: obs.SLORatioMax,
				Metric: "serve/window/shed", Denominator: "serve/window/requests", Threshold: 0.9},
			{Name: "resume_success", Kind: obs.SLORatioMin,
				Metric: "serve/window/resume_hits", Denominator: "serve/window/resumes", Threshold: 0.2},
		}
	}
	return cfg
}

// installTracer attaches a client-side wall recorder when -trace-out
// asks for the merged trace artifact.
func (t telemetryOpts) installTracer(client *serve.Client) {
	if t.traceOut != "" {
		rec := obs.NewWallRecorder(1 << 16)
		rec.SetProcessName("bgqload (wall clock)")
		client.SetTracer(rec)
	}
}

// writeArtifacts emits the -trace-out and -slo-out files after a run.
// Artifacts are written before the gates are applied, so a failed soak
// still leaves its trace behind for diagnosis.
func (t telemetryOpts) writeArtifacts(client *serve.Client, slo *obs.SLOSnapshot) {
	if t.traceOut != "" {
		var clientTrace strings.Builder
		if err := client.Tracer().WriteChromeTrace(&clientTrace); err != nil {
			fatal("trace: %v", err)
		}
		parts := [][]byte{[]byte(clientTrace.String())}
		// The daemon's half is best effort: a daemon without -trace-events
		// still yields a usable client-side trace.
		if serverTrace, err := client.TraceJSON(context.Background()); err == nil {
			parts = append(parts, serverTrace)
		} else {
			fmt.Fprintf(os.Stderr, "bgqload: daemon trace unavailable (%v); writing client half only\n", err)
		}
		// An extra snapshot (typically a -dump-trace of a daemon that was
		// since restarted) rides along best-effort: the chaos soak dumps
		// the first daemon's ring just before the SIGTERM so the archive
		// keeps the server spans that would otherwise die with it.
		if t.traceExtra != "" {
			if extra, err := os.ReadFile(t.traceExtra); err == nil {
				parts = append(parts, extra)
			} else {
				fmt.Fprintf(os.Stderr, "bgqload: -trace-extra unreadable (%v); skipping\n", err)
			}
		}
		f, err := os.Create(t.traceOut)
		if err != nil {
			fatal("trace: %v", err)
		}
		if err := obs.MergeChromeTraces(f, parts...); err != nil {
			f.Close()
			fatal("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Printf("bgqload: merged trace written to %s (open in ui.perfetto.dev)\n", t.traceOut)
	}
	if t.sloOut != "" {
		if slo == nil {
			fatal("slo: daemon served no SLO snapshot — configure bgqd -slo-* objectives")
		}
		f, err := os.Create(t.sloOut)
		if err != nil {
			fatal("slo: %v", err)
		}
		if err := slo.WriteJSON(f); err != nil {
			f.Close()
			fatal("slo: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("slo: %v", err)
		}
		fmt.Printf("bgqload: SLO snapshot written to %s\n", t.sloOut)
	}
}

// startInProcess runs a daemon inside this process on a loopback port.
func startInProcess(cfg serve.Config) (addr string, cleanup func(), err error) {
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	cleanup = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Close()
	}
	return ln.Addr().String(), cleanup, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bgqload: "+format+"\n", args...)
	os.Exit(1)
}
