// Command bgqbench regenerates every data figure of the paper's
// evaluation (Figs. 5-11) plus the ablations in DESIGN.md, printing each
// as a text table.
//
// Usage:
//
//	bgqbench [-run fig5|fig6|fig7|fig8|fig9|fig10|fig11|r1|ablations|extensions|scale|topo|all]
//	         [-quick] [-parallel N]
//	         [-json out.json] [-compare prev.json]
//	         [-obs-trace f] [-metrics f] [-check]
//	         [-cpuprofile f] [-memprofile f] [-trace f]
//
// -quick trims the sweeps (fewer message sizes, smaller top scale) for a
// fast smoke run; the default regenerates the full figures. -parallel
// bounds the worker pool used to evaluate independent sweep points (0
// means one per CPU; results are identical at any setting). -json writes
// a machine-readable report — per-experiment wall time, simulated
// seconds, allocation totals, and the rendered rows, plus the process's
// peak resident set where /proc reports it — and -compare prints a
// one-line wall-time comparison against a previous report.
//
// -obs-trace records the run's simulation-time spans (proxy legs,
// recovery waves, replans) into a Chrome trace-event JSON file loadable
// at ui.perfetto.dev; -metrics writes the observability registry's
// counters and histograms as a flat JSON snapshot. Both also embed a
// metrics summary in the -json report. The observability hooks are
// currently wired through the r1 runner.
//
// -check attaches an invariant auditor (internal/check) to every engine
// the runners build: per-sweep capacity and rate-cap checks plus
// end-of-run byte conservation. Each experiment prints a one-line audit
// summary and the process exits non-zero if any violation was found.
// Because the auditor claims each engine's observability sink, -check
// cannot be combined with -obs-trace or -metrics. Flags are validated
// up front: an unknown -run name, a negative -parallel, an unreadable
// -compare file, or a conflicting combination exits 2 with a one-line
// error before any experiment runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgqflow/internal/check"
	"bgqflow/internal/experiments"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/stats"
)

// expReport is one experiment's entry in the -json report.
type expReport struct {
	Name       string   `json:"name"`
	WallMS     float64  `json:"wall_ms"`
	SimSeconds float64  `json:"sim_seconds"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Allocs     uint64   `json:"allocs"`
	Rows       []string `json:"rows"`
}

// report is the -json output: enough to track the bench trajectory from
// run to run (see scripts/bench.sh).
type report struct {
	Date        string      `json:"date"`
	Quick       bool        `json:"quick"`
	Parallel    int         `json:"parallel"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	TotalWallMS float64     `json:"total_wall_ms"`
	PeakRSSMB   float64     `json:"peak_rss_mb,omitempty"` // VmHWM as the report is written; 0 (omitted) without /proc
	Experiments []expReport `json:"experiments"`
	// Metrics is the observability registry snapshot, present when
	// -obs-trace or -metrics was given.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// runners maps experiment names to their printers, in run order; it is
// the single source of truth for the names -run accepts.
var runners = []struct {
	name string
	fn   func(io.Writer, experiments.Options) error
}{
	{"fig5", printFig5},
	{"fig6", printFig6},
	{"fig7", printFig7},
	{"fig8", printFig8},
	{"fig9", printFig9},
	{"fig10", printFig10},
	{"fig11", printFig11},
	{"r1", printR1},
	{"ablations", printAblations},
	{"extensions", printExtensions},
	{"scale", printScale},
	{"topo", printTopo},
}

// validateFlags rejects bad flags before any experiment runs, so a long
// sweep never dies halfway through on a typo. Returned errors are
// printed as a single line and exit with status 2.
func validateFlags(selected []string, parallel int, checkOn bool, obsTrace, metricsOut, compare string) error {
	known := make([]string, 0, len(runners)+1)
	for _, r := range runners {
		known = append(known, r.name)
	}
	known = append(known, "all")
	for _, name := range selected {
		ok := false
		for _, k := range known {
			if name == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	if checkOn && (obsTrace != "" || metricsOut != "") {
		return fmt.Errorf("-check cannot be combined with -obs-trace or -metrics: the invariant auditor claims each engine's observability sink")
	}
	if compare != "" {
		f, err := os.Open(compare)
		if err != nil {
			return fmt.Errorf("compare: %v", err)
		}
		f.Close()
	}
	return nil
}

// checkCollector accumulates the invariant auditors the -check hook
// attaches to every engine a runner builds, and drains them (running
// their end-of-run checks) once the runner returns. Runners build
// engines from parallel sweep workers, so attach is locked.
type checkCollector struct {
	mu       sync.Mutex
	auditors []*check.Auditor
}

func (c *checkCollector) attach(e *netsim.Engine) {
	a := check.NewAuditor(e)
	c.mu.Lock()
	c.auditors = append(c.auditors, a)
	c.mu.Unlock()
}

// drain finishes every auditor attached since the last drain, returning
// the number of engines audited and any violations found.
func (c *checkCollector) drain() (engines int, viols []check.Violation) {
	c.mu.Lock()
	auditors := c.auditors
	c.auditors = nil
	c.mu.Unlock()
	for _, a := range auditors {
		viols = append(viols, a.Finish()...)
	}
	return len(auditors), viols
}

func main() {
	run := flag.String("run", "all", "which experiment to run: fig5..fig11, r1, ablations, extensions, or all")
	quick := flag.Bool("quick", false, "trimmed sweeps for a fast smoke run")
	parallel := flag.Int("parallel", 0, "sweep-point workers; 0 = one per CPU, 1 = sequential (same results either way)")
	jsonOut := flag.String("json", "", "write a machine-readable run report to this file")
	compare := flag.String("compare", "", "previous -json report to print a wall-time comparison against")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	obsTrace := flag.String("obs-trace", "", "write the run's simulation-time spans as Chrome trace-event JSON (ui.perfetto.dev)")
	metricsOut := flag.String("metrics", "", "write the observability metrics registry as a JSON snapshot")
	checkOn := flag.Bool("check", false, "attach invariant auditors (internal/check) to every engine; exit non-zero on any violation")
	flag.Parse()

	selected := strings.Split(*run, ",")
	if err := validateFlags(selected, *parallel, *checkOn, *obsTrace, *metricsOut, *compare); err != nil {
		fmt.Fprintf(os.Stderr, "bgqbench: %v\n", err)
		os.Exit(2)
	}

	opt := experiments.Options{Quick: *quick, Parallel: *parallel}
	if *obsTrace != "" || *metricsOut != "" {
		opt.Obs = obs.NewRecorder()
	}
	var checker *checkCollector
	if *checkOn {
		checker = &checkCollector{}
		opt.EngineHook = checker.attach
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace: %v", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fatal("trace: %v", err)
		}
		defer trace.Stop()
	}

	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	rep := report{
		Date:       time.Now().Format(time.RFC3339),
		Quick:      *quick,
		Parallel:   *parallel,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	any := false
	violations := 0
	for _, r := range runners {
		if !want(r.name) {
			continue
		}
		any = true
		var buf strings.Builder
		out := io.Writer(os.Stdout)
		if *jsonOut != "" {
			out = io.MultiWriter(os.Stdout, &buf)
		}
		experiments.ResetSimTime()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := r.fn(out, opt); err != nil {
			fatal("%s: %v", r.name, err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		fmt.Printf("[%s completed in %v]\n\n", r.name, wall.Round(time.Millisecond))
		rep.TotalWallMS += float64(wall) / float64(time.Millisecond)
		rep.Experiments = append(rep.Experiments, expReport{
			Name:       r.name,
			WallMS:     float64(wall) / float64(time.Millisecond),
			SimSeconds: experiments.SimTime(),
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Allocs:     after.Mallocs - before.Mallocs,
			Rows:       splitRows(buf.String()),
		})
		if checker != nil {
			engines, viols := checker.drain()
			for _, v := range viols {
				fmt.Fprintf(os.Stderr, "bgqbench: check: %s: %s\n", r.name, v)
			}
			fmt.Printf("[%s check: %d engines audited, %d violations]\n\n", r.name, engines, len(viols))
			violations += len(viols)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "bgqbench: unknown experiment %q\n", *run)
		os.Exit(2)
	}
	if violations > 0 {
		fatal("check: %d invariant violations", violations)
	}

	if opt.Obs != nil {
		snap := opt.Obs.Registry().Snapshot()
		rep.Metrics = &snap
		if *obsTrace != "" {
			if err := writeObsTrace(*obsTrace, opt.Obs); err != nil {
				fatal("obs-trace: %v", err)
			}
			fmt.Printf("wrote %d spans to %s (open at ui.perfetto.dev)\n", len(opt.Obs.Spans()), *obsTrace)
		}
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut, snap); err != nil {
				fatal("metrics: %v", err)
			}
		}
	}

	if *jsonOut != "" {
		rep.PeakRSSMB = peakRSSMB()
		if err := writeReport(*jsonOut, rep); err != nil {
			fatal("json: %v", err)
		}
	}
	if *compare != "" {
		line, err := compareLine(*compare, rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bgqbench: compare: %v\n", err)
		} else {
			fmt.Println(line)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("memprofile: %v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bgqbench: "+format+"\n", args...)
	os.Exit(1)
}

// splitRows turns captured table text into trimmed, non-empty lines.
func splitRows(s string) []string {
	var rows []string
	for _, line := range strings.Split(s, "\n") {
		if line = strings.TrimRight(line, " "); line != "" {
			rows = append(rows, line)
		}
	}
	return rows
}

// writeObsTrace dumps the recorder as Chrome trace-event JSON.
func writeObsTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps a registry snapshot as flat JSON.
func writeMetrics(path string, snap obs.MetricsSnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, or 0
// where /proc/self/status does not report it.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareLine renders a one-line wall-time comparison against a previous
// report, matching experiments by name.
func compareLine(prevPath string, cur report) (string, error) {
	b, err := os.ReadFile(prevPath)
	if err != nil {
		return "", err
	}
	var prev report
	if err := json.Unmarshal(b, &prev); err != nil {
		return "", fmt.Errorf("%s: %w", prevPath, err)
	}
	prevByName := make(map[string]float64, len(prev.Experiments))
	for _, e := range prev.Experiments {
		prevByName[e.Name] = e.WallMS
	}
	var prevTotal, curTotal float64
	matched := 0
	for _, e := range cur.Experiments {
		if p, ok := prevByName[e.Name]; ok {
			prevTotal += p
			curTotal += e.WallMS
			matched++
		}
	}
	if matched == 0 {
		return "", fmt.Errorf("%s: no experiments in common", prevPath)
	}
	return fmt.Sprintf("bench: %d experiments, %.0f ms now vs %.0f ms in %s (%.2fx)",
		matched, curTotal, prevTotal, prev.Date, prevTotal/curTotal), nil
}

func printCurveTable(w io.Writer, title, xlabel string, curves ...experiments.Curve) error {
	t := stats.Table{Title: title, Headers: []string{xlabel}}
	for _, c := range curves {
		t.Headers = append(t.Headers, c.Name+" (GB/s)")
	}
	for i := range curves[0].Points {
		row := []string{stats.HumanBytes(curves[0].Points[i].Bytes)}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.3f", c.Points[i].GBps))
		}
		t.AddRow(row...)
	}
	return t.Write(w)
}

func printFig5(w io.Writer, opt experiments.Options) error {
	res, err := experiments.Fig5(opt)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Fig. 5: point-to-point PUT throughput with and w/o proxies in %v", res.Shape)
	if err := printCurveTable(w, title, "size", res.Direct, res.Proxied); err != nil {
		return err
	}
	fmt.Fprintf(w, "crossover (proxied first wins): %s\n", stats.HumanBytes(res.Crossover))
	return nil
}

func printFig6(w io.Writer, opt experiments.Options) error {
	res, err := experiments.Fig6(opt)
	if err != nil {
		return err
	}
	names := make([]string, len(res.Groups))
	for i, g := range res.Groups {
		names[i] = g.String()
	}
	title := fmt.Sprintf("Fig. 6: group-to-group PUT throughput, 2x256 nodes in %v (proxy groups: %s)",
		res.Shape, strings.Join(names, " "))
	if err := printCurveTable(w, title, "size", res.Direct, res.Proxied); err != nil {
		return err
	}
	fmt.Fprintf(w, "crossover (proxied first wins): %s\n", stats.HumanBytes(res.Crossover))
	return nil
}

func printFig7(w io.Writer, opt experiments.Options) error {
	res, err := experiments.Fig7(opt)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Fig. 7: throughput vs number of proxy groups, 2x32 nodes in %v", res.Shape)
	return printCurveTable(w, title, "size", res.Curves...)
}

func printFig8(w io.Writer, _ experiments.Options) error {
	fmt.Fprintln(w, "Fig. 8: Pattern 1 histogram (1,024 ranks, uniform 0-8MB)")
	fmt.Fprint(w, experiments.Fig8(1).String())
	return nil
}

func printFig9(w io.Writer, _ experiments.Options) error {
	fmt.Fprintln(w, "Fig. 9: Pattern 2 histogram (1,024 ranks, Pareto 0-8MB)")
	fmt.Fprint(w, experiments.Fig9(1).String())
	return nil
}

func printScaleTable(w io.Writer, title string, curves ...experiments.ScaleCurve) error {
	t := stats.Table{Title: title, Headers: []string{"cores"}}
	for _, c := range curves {
		t.Headers = append(t.Headers, c.Name+" (GB/s)")
	}
	for i := range curves[0].Points {
		row := []string{fmt.Sprint(curves[0].Points[i].Cores)}
		for _, c := range curves {
			row = append(row, fmt.Sprintf("%.3f", c.Points[i].GBps))
		}
		t.AddRow(row...)
	}
	return t.Write(w)
}

func printFig10(w io.Writer, opt experiments.Options) error {
	res, err := experiments.Fig10(opt)
	if err != nil {
		return err
	}
	return printScaleTable(w, "Fig. 10: aggregation throughput to ION /dev/null (weak scaling)",
		res.OursP1, res.OursP2, res.DefaultP1, res.DefaultP2)
}

func printFig11(w io.Writer, opt experiments.Options) error {
	res, err := experiments.Fig11(opt)
	if err != nil {
		return err
	}
	if err := printScaleTable(w, "Fig. 11: HACC I/O write throughput to ION /dev/null",
		res.Ours, res.Default); err != nil {
		return err
	}
	for i, gb := range res.BurstGB {
		fmt.Fprintf(w, "  burst at %d cores: %.1f GB\n", res.Ours.Points[i].Cores, gb)
	}
	return nil
}

func printR1(w io.Writer, opt experiments.Options) error {
	res, err := experiments.R1(opt)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title: fmt.Sprintf("R1: resilience under targeted link failures, %s transfer in %v (seed %d)",
			stats.HumanBytes(res.Bytes), res.Shape, res.Seed),
		Headers: []string{"failed links",
			"direct done", "direct (GB/s)",
			"proxy done", "proxy (GB/s)",
			"recovery done", "recovery (GB/s)", "replans"},
	}
	pct := func(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
	for _, pt := range res.Points {
		t.AddRow(fmt.Sprint(pt.FailedLinks),
			pct(pt.Direct.DeliveredFrac), fmt.Sprintf("%.3f", pt.Direct.GBps),
			pct(pt.ProxyNoRec.DeliveredFrac), fmt.Sprintf("%.3f", pt.ProxyNoRec.GBps),
			pct(pt.ProxyRec.DeliveredFrac), fmt.Sprintf("%.3f", pt.ProxyRec.GBps),
			fmt.Sprint(pt.ProxyRec.Replans))
	}
	return t.Write(w)
}

func printAblations(w io.Writer, opt experiments.Options) error {
	a1, err := experiments.AblationThreshold(opt)
	if err != nil {
		return err
	}
	if err := printCurveTable(w, "Ablation A1: gain over direct vs message size per proxy count (Eq. 5 check)",
		"size", a1.Curves...); err != nil {
		return err
	}

	a2, err := experiments.AblationPlacement(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAblation A2: placement at %s: direct %.2f GB/s, link-disjoint (%d proxies) %.2f GB/s, naive random %.2f GB/s\n",
		stats.HumanBytes(a2.Bytes), a2.DirectGBps, a2.DisjointProxies, a2.DisjointGBps, a2.NaiveGBps)

	a3, err := experiments.AblationAggCount(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAblation A3: aggregator count at %d cores (%.1f GB burst): dynamic (%d/pset) %.2f GB/s",
		a3.Cores, a3.BurstGB, a3.DynamicPerPset, a3.DynamicGBps)
	for _, f := range a3.Fixed {
		fmt.Fprintf(w, ", fixed %d/pset %.2f GB/s", f.PerPset, f.GBps)
	}
	fmt.Fprintln(w)

	a4, err := experiments.AblationZones(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAblation A4: %d concurrent %s messages between one pair, per routing zone:\n",
		a4.Messages, stats.HumanBytes(a4.Bytes))
	for _, z := range a4.PerZone {
		fmt.Fprintf(w, "  %-28s %.2f GB/s\n", z.Zone, z.GBps)
	}

	a5, err := experiments.AblationRoundSync(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nAblation A5: collective I/O round synchronization at %d cores: synced %.2f GB/s, unsynced %.2f GB/s, ours %.2f GB/s\n",
		a5.Cores, a5.SyncedGBps, a5.UnsyncedGBps, a5.OursGBps)
	return nil
}

func printExtensions(w io.Writer, opt experiments.Options) error {
	e1, err := experiments.ExtStorage(opt)
	if err != nil {
		return err
	}
	t := stats.Table{
		Title:   fmt.Sprintf("Extension E1: storage tier behind the IONs (%d cores, %.0f GB Pattern 1 burst)", e1.Cores, e1.BurstGB),
		Headers: []string{"sink", "ours (GB/s)", "default (GB/s)", "gain"},
	}
	for _, r := range e1.Rows {
		t.AddRow(r.Sink, fmt.Sprintf("%.2f", r.OursGBps), fmt.Sprintf("%.2f", r.DefaultGBps),
			fmt.Sprintf("%.2fx", r.OursGBps/r.DefaultGBps))
	}
	if err := t.Write(w); err != nil {
		return err
	}

	e2, err := experiments.ExtMapping(opt)
	if err != nil {
		return err
	}
	t2 := stats.Table{
		Title:   fmt.Sprintf("\nExtension E2: rank-mapping sensitivity (HACC burst, %d cores)", e2.Cores),
		Headers: []string{"mapping", "ours (GB/s)", "default (GB/s)", "gain"},
	}
	for _, r := range e2.Rows {
		t2.AddRow(r.Mapping, fmt.Sprintf("%.2f", r.OursGBps), fmt.Sprintf("%.2f", r.DefGBps),
			fmt.Sprintf("%.2fx", r.OursGBps/r.DefGBps))
	}
	if err := t2.Write(w); err != nil {
		return err
	}

	e3, err := experiments.ExtPipeline(opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := printCurveTable(w, "Extension E3: pipelined store-and-forward (paper future work)",
		"size", e3.Direct, e3.PlainK2, e3.PipedK2, e3.PipedK4); err != nil {
		return err
	}

	e4, err := experiments.ExtValidation(opt)
	if err != nil {
		return err
	}
	t4 := stats.Table{
		Title:   "\nExtension E4: flow-level vs packet-level model agreement",
		Headers: []string{"scenario", "size", "flow (GB/s)", "packet (GB/s)", "diff"},
	}
	for _, r := range e4.Rows {
		t4.AddRow(r.Scenario, stats.HumanBytes(r.Bytes),
			fmt.Sprintf("%.3f", r.FlowGBps), fmt.Sprintf("%.3f", r.PacketGBps),
			fmt.Sprintf("%.1f%%", r.DiffPct))
	}
	if err := t4.Write(w); err != nil {
		return err
	}

	e5, err := experiments.ExtInsitu(opt)
	if err != nil {
		return err
	}
	t5 := stats.Table{
		Title:   "\nExtension E5: bursts from real in-situ threshold analysis (field substrate)",
		Headers: []string{"cores", "burst (GB)", "ranks w/ data", "ours (GB/s)", "default (GB/s)", "gain"},
	}
	for _, r := range e5.Rows {
		t5.AddRow(fmt.Sprint(r.Cores), fmt.Sprintf("%.1f", r.BurstGB),
			fmt.Sprintf("%.0f%%", r.RanksWithData*100),
			fmt.Sprintf("%.2f", r.OursGBps), fmt.Sprintf("%.2f", r.DefaultGBps),
			fmt.Sprintf("%.2fx", r.OursGBps/r.DefaultGBps))
	}
	return t5.Write(w)
}

func printTopo(w io.Writer, opt experiments.Options) error {
	res, err := experiments.TopoCompare(opt)
	if err != nil {
		return err
	}
	curves := make([]experiments.Curve, len(res.Fabrics))
	for i, f := range res.Fabrics {
		curves[i] = f.Curve
	}
	if err := printCurveTable(w, "Topology comparison: corner-to-corner direct PUT throughput", "size", curves...); err != nil {
		return err
	}
	for _, f := range res.Fabrics {
		fmt.Fprintf(w, "%-18s %d nodes, %d-hop measured route\n", f.Spec, f.Nodes, f.Hops)
	}
	return nil
}

func printScale(w io.Writer, opt experiments.Options) error {
	res, err := experiments.ScaleSparse(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Scale: full-machine sparse exchange in %v (%d nodes, %d ranks)\n",
		res.Shape, res.Nodes, res.Ranks)
	fmt.Fprintf(w, "  flows: %d done, %d aborted (fault campaign)\n", res.Done, res.Aborted)
	fmt.Fprintf(w, "  volume: %.1f GB in %.1f ms simulated (%.1f GB/s aggregate)\n",
		res.TotalGB, res.SimSeconds*1e3, res.GBps)
	fmt.Fprintf(w, "  sweeps: %d incremental, %d full\n", res.IncSweeps, res.FullSweeps)
	return nil
}
