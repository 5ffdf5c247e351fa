package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"bgqflow/internal/serve"
)

// buildTool compiles one of the repo's commands into a temp dir and
// returns the binary path.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func TestToruscalcCLI(t *testing.T) {
	bin := buildTool(t, "cmd/toruscalc")
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-shape", "2x2x4x4x2", "route", "0", "127"}, "deterministic route"},
		{[]string{"-shape", "4x4x4x16x2", "psets"}, "16 psets"},
		{[]string{"-shape", "2x2x4x4x2", "proxies", "0", "127"}, "link-disjoint proxies"},
		{[]string{"-shape", "2x2x4x4x2", "zones", "0", "127", "1048576"}, "flexibility"},
		{[]string{"-shape", "2x2x4x4x2", "map", "TABCDE", "2"}, "mapping TABCDE"},
		// The crossover the planner decides on (CostModel.PairThreshold).
		{[]string{"-shape", "2x2x4x4x2", "model", "0", "127", "3"}, "model threshold: 272449 bytes"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("toruscalc %v: %v\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("toruscalc %v output missing %q:\n%s", c.args, c.want, out)
		}
	}
	// Bad input exits nonzero.
	if err := exec.Command(bin, "-shape", "2x2", "route", "0", "99").Run(); err == nil {
		t.Fatal("bad node accepted")
	}
}

func TestBgqsimCLI(t *testing.T) {
	bin := buildTool(t, "cmd/bgqsim")
	cmd := exec.Command(bin, "-")
	cmd.Stdin = strings.NewReader(`{
		"shape": "2x2x4x4x2",
		"transfer": {"kind": "pair", "src": 0, "dst": 127, "bytes": 33554432, "proxies": 4}
	}`)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("bgqsim: %v\n%s", err, out.String())
	}
	for _, want := range []string{"mode:", "proxied", "throughput:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("bgqsim output missing %q:\n%s", want, out.String())
		}
	}
	// Scenario files from the repo run too.
	out2, err := exec.Command(bin, "examples/scenarios/pair-proxied.json").CombinedOutput()
	if err != nil {
		t.Fatalf("bgqsim file: %v\n%s", err, out2)
	}
	// Invalid scenario exits nonzero.
	bad := exec.Command(bin, "-")
	bad.Stdin = strings.NewReader(`{"shape": "2x2x4x4x2"}`)
	if err := bad.Run(); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// Input problems must exit 2 up front — before any simulation work —
// matching the bgqbench convention; only runtime failures exit 1.
func TestBgqsimFlagValidation(t *testing.T) {
	bin := buildTool(t, "cmd/bgqsim")
	missing := filepath.Join(t.TempDir(), "nope.json")
	cases := []struct {
		name  string
		args  []string
		stdin string
		want  string
	}{
		{"no args", nil, "", "usage:"},
		{"two args", []string{"a.json", "b.json"}, "", "usage:"},
		{"unreadable file", []string{missing}, "", "no such file"},
		{"invalid json", []string{"-"}, `{"shape": }`, "parse"},
		{"invalid scenario", []string{"-"}, `{"shape": "2x2x4x4x2"}`, "scenario"},
		{"bad trace dir", []string{"-trace", filepath.Join(missing, "t.json"), "-"},
			`{"shape":"2x2x4x4x2","transfer":{"kind":"pair","src":0,"dst":1,"bytes":1024}}`, "trace"},
	}
	for _, c := range cases {
		cmd := exec.Command(bin, c.args...)
		if c.stdin != "" {
			cmd.Stdin = strings.NewReader(c.stdin)
		}
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s: accepted, output:\n%s", c.name, out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: want exit 2, got %v\n%s", c.name, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("%s: error output missing %q:\n%s", c.name, c.want, out)
		}
		if strings.Contains(string(out), "throughput:") {
			t.Fatalf("%s: simulation ran despite invalid input:\n%s", c.name, out)
		}
	}
}

func TestBgqdFlagValidation(t *testing.T) {
	bin := buildTool(t, "cmd/bgqd")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad listen", []string{"-listen", "nonsense"}, "-listen"},
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
		{"negative queue", []string{"-queue", "-5"}, "-queue"},
		{"negative retry-after", []string{"-retry-after", "-1s"}, "-retry-after"},
		{"negative max-sessions", []string{"-max-sessions", "-1"}, "-max-sessions"},
		{"negative session-idle", []string{"-session-idle", "-1s"}, "-session-idle"},
		{"negative batch-window", []string{"-batch-window", "-1ms"}, "-batch-window"},
		{"zero drain-timeout", []string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{"extra args", []string{"surprise"}, "unexpected arguments"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: want exit 2, got %v\n%s", c.name, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("%s: error output missing %q:\n%s", c.name, c.want, out)
		}
	}
}

func TestBgqloadFlagValidation(t *testing.T) {
	bin := buildTool(t, "cmd/bgqload")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no addr", nil, "-addr"},
		{"bad mode", []string{"-addr", "x:1", "-mode", "sideways"}, "mode"},
		{"bad pattern", []string{"-addr", "x:1", "-patterns", "bogus"}, "pattern"},
		{"bad shape", []string{"-addr", "x:1", "-shape", "nope"}, "shape"},
		{"zero rps", []string{"-addr", "x:1", "-rps", "0"}, "rps"},
		{"bad p99 ratio", []string{"-addr", "x:1", "-p99-ratio", "0"}, "-p99-ratio"},
		{"bad shed rate", []string{"-addr", "x:1", "-max-shed-rate", "1.5"}, "-max-shed-rate"},
		{"missing baseline", []string{"-addr", "x:1", "-baseline", filepath.Join(t.TempDir(), "nope.json")}, "baseline"},
		{"session no addr", []string{"-sessions", "4"}, "-addr"},
		{"negative sessions", []string{"-addr", "x:1", "-sessions", "-2"}, "sessions"},
		{"bad session pattern", []string{"-addr", "x:1", "-sessions", "4", "-pattern", "bogus"}, "pattern"},
		{"bad session shape", []string{"-addr", "x:1", "-sessions", "4", "-shape", "nope"}, "shape"},
		{"negative min-resumes", []string{"-addr", "x:1", "-sessions", "4", "-min-resumes", "-1"}, "-min-resumes"},
		{"negative min-pushed-faults", []string{"-addr", "x:1", "-sessions", "4", "-min-pushed-faults", "-1"}, "-min-pushed-faults"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: want exit 2, got %v\n%s", c.name, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("%s: error output missing %q:\n%s", c.name, c.want, out)
		}
	}
}

// TestBgqdBgqloadEndToEnd spawns a real bgqd on a Unix socket and drives
// it with bgqload — the miniature of `make soak`.
func TestBgqdBgqloadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bgqd := buildTool(t, "cmd/bgqd")
	bgqload := buildTool(t, "cmd/bgqload")
	sock := filepath.Join(t.TempDir(), "bgqd.sock")

	daemon := exec.Command(bgqd, "-socket", sock)
	var dout bytes.Buffer
	daemon.Stdout = &dout
	daemon.Stderr = &dout
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(os.Interrupt)
		daemon.Wait()
	}()
	// Wait for the socket to appear.
	for i := 0; ; i++ {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("bgqd never bound %s:\n%s", sock, dout.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	reportPath := filepath.Join(t.TempDir(), "load.json")
	out, err := exec.Command(bgqload,
		"-addr", "unix://"+sock, "-duration", "2s", "-rps", "150",
		"-seed", "7", "-json", reportPath, "-require-coalesce").CombinedOutput()
	if err != nil {
		t.Fatalf("bgqload: %v\n%s\ndaemon:\n%s", err, out, dout.String())
	}
	for _, want := range []string{"0 5xx", "all soak gates passed"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("bgqload output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests  int   `json:"requests"`
		Status5xx int   `json:"status_5xx"`
		CacheHits int64 `json:"cache_hits"`
		Coalesced int64 `json:"coalesced"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Status5xx != 0 || rep.CacheHits+rep.Coalesced == 0 {
		t.Fatalf("bad report: %+v", rep)
	}
}

func TestBgqbenchQuickCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "cmd/bgqbench")
	out, err := exec.Command(bin, "-quick", "-run", "fig5").CombinedOutput()
	if err != nil {
		t.Fatalf("bgqbench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "crossover") {
		t.Fatalf("bgqbench output missing crossover:\n%s", out)
	}
	if err := exec.Command(bin, "-run", "nonsense").Run(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// -json records the process's peak resident set, read from VmHWM, where
// /proc reports it.
func TestBgqbenchJSONPeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status")
	}
	bin := buildTool(t, "cmd/bgqbench")
	path := filepath.Join(t.TempDir(), "report.json")
	if out, err := exec.Command(bin, "-quick", "-run", "fig5", "-json", path).CombinedOutput(); err != nil {
		t.Fatalf("bgqbench: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		PeakRSSMB *float64 `json:"peak_rss_mb"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.PeakRSSMB == nil || !(*rep.PeakRSSMB > 0) {
		t.Fatalf("report has no positive peak_rss_mb:\n%s", raw)
	}
}

// Bad flags must be rejected up front — exit 2 with a one-line error
// before any experiment runs — so a typo can't kill a long sweep
// halfway through.
func TestBgqbenchFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "cmd/bgqbench")
	cases := []struct {
		name string
		args []string
		want string // substring of the one-line stderr error
	}{
		{"unknown name in list", []string{"-run", "fig5,nonsense"}, "unknown experiment"},
		{"unreadable compare", []string{"-run", "fig5", "-compare", filepath.Join(t.TempDir(), "missing.json")}, "compare"},
		{"negative parallel", []string{"-run", "fig5", "-parallel", "-2"}, "-parallel"},
		{"check with obs-trace", []string{"-run", "fig5", "-check", "-obs-trace", "x.json"}, "-check"},
		{"check with metrics", []string{"-run", "fig5", "-check", "-metrics", "m.json"}, "-check"},
	}
	for _, c := range cases {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%s: accepted, output:\n%s", c.name, out)
		}
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%s: want exit 2, got %v", c.name, err)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("%s: error output missing %q:\n%s", c.name, c.want, out)
		}
		// The run never starts: no experiment output, just the error.
		if strings.Contains(string(out), "completed in") {
			t.Fatalf("%s: experiment ran despite invalid flags:\n%s", c.name, out)
		}
	}
}

// -check audits every engine the runner builds and reports a per-runner
// summary; a clean run exits zero.
func TestBgqbenchCheckCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "cmd/bgqbench")
	out, err := exec.Command(bin, "-check", "-quick", "-run", "fig5,r1").CombinedOutput()
	if err != nil {
		t.Fatalf("bgqbench -check: %v\n%s", err, out)
	}
	for _, want := range []string{"[fig5 check:", "[r1 check:", "0 violations"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("missing %q in -check output:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), " 0 engines audited") {
		t.Fatalf("-check audited no engines:\n%s", out)
	}
}

// TestBgqbenchObsTraceCLI is the PR's acceptance check: the r1 quick run
// with -obs-trace must produce valid Chrome trace-event JSON containing
// proxy-leg and replan spans, -metrics must produce a readable snapshot,
// and the -json report must embed the metrics.
func TestBgqbenchObsTraceCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "cmd/bgqbench")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	reportPath := filepath.Join(dir, "report.json")
	out, err := exec.Command(bin, "-run", "r1", "-quick",
		"-obs-trace", tracePath, "-metrics", metricsPath, "-json", reportPath).CombinedOutput()
	if err != nil {
		t.Fatalf("bgqbench: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("obs trace is not valid JSON: %v", err)
	}
	var proxySpans, replanSpans int
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if strings.Contains(e.Name, "proxy") {
			proxySpans++
		}
		if strings.Contains(e.Name, "replan") {
			replanSpans++
		}
	}
	if proxySpans == 0 || replanSpans == 0 {
		t.Fatalf("trace has %d proxy spans and %d replan spans, want both > 0", proxySpans, replanSpans)
	}

	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	mraw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mraw, &metrics); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	if metrics.Counters["transport/replans"] == 0 || metrics.Counters["netsim/flows_done"] == 0 {
		t.Fatalf("metrics counters missing expected entries: %v", metrics.Counters)
	}

	var report struct {
		Metrics *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	rraw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rraw, &report); err != nil {
		t.Fatal(err)
	}
	if report.Metrics == nil || report.Metrics.Counters["transport/replans"] == 0 {
		t.Fatal("-json report did not embed the metrics snapshot")
	}
}

// startBgqd spawns a bgqd binary on a fresh Unix socket and waits for
// the bind; the returned buffer accumulates both output streams.
func startBgqd(t *testing.T, bin string, extra ...string) (*exec.Cmd, *bytes.Buffer, *serve.Client) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "bgqd.sock")
	daemon := exec.Command(bin, append([]string{"-socket", sock}, extra...)...)
	var out bytes.Buffer
	daemon.Stdout = &out
	daemon.Stderr = &out
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		daemon.Process.Kill()
		daemon.Wait() // second Wait after a test's own is a harmless error
	})
	for i := 0; ; i++ {
		if _, err := os.Stat(sock); err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("bgqd never bound %s:\n%s", sock, out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	client, err := serve.NewClient("unix://" + sock)
	if err != nil {
		t.Fatal(err)
	}
	return daemon, &out, client
}

// TestBgqdDrainCLI covers the graceful-shutdown contract end to end:
// SIGTERM with a session in flight drains it and exits 0; an expired
// -drain-timeout aborts the session and the daemon exits 1 so
// supervisors can see the drain was not clean.
func TestBgqdDrainCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "cmd/bgqd")

	launch := func(client *serve.Client, id string, paceUS int, pol serve.RetryPolicy) (<-chan struct{}, <-chan struct{}, *serve.TransferOutcome, *error) {
		started := make(chan struct{})
		done := make(chan struct{})
		var out serve.TransferOutcome
		var terr error
		go func() {
			defer close(done)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var once sync.Once
			out, terr = client.Transfer(ctx, serve.TransferRequest{
				ID: id, Shape: "2x2x4x4x2", Src: 0, Dst: 97, Bytes: 64 << 20, PaceUS: paceUS,
			}, serve.TransferOpts{
				Backoff: pol,
				OnFrame: func(serve.SessionFrame) { once.Do(func() { close(started) }) },
			})
		}()
		return started, done, &out, &terr
	}

	t.Run("clean", func(t *testing.T) {
		daemon, dout, client := startBgqd(t, bin, "-drain-timeout", "30s")
		started, done, out, terr := launch(client, "cli-drain-ok", 2000, serve.RetryPolicy{})
		<-started
		daemon.Process.Signal(syscall.SIGTERM)
		if err := daemon.Wait(); err != nil {
			t.Fatalf("clean drain exited nonzero: %v\n%s", err, dout.String())
		}
		if !strings.Contains(dout.String(), "1 sessions finished, 0 aborted") {
			t.Errorf("daemon output missing clean drain line:\n%s", dout.String())
		}
		<-done
		if *terr != nil || out.Err != "" || len(out.Report) == 0 {
			t.Fatalf("in-flight session failed under clean drain: %v / %q", *terr, out.Err)
		}
	})

	t.Run("aborted", func(t *testing.T) {
		daemon, dout, client := startBgqd(t, bin, "-drain-timeout", "150ms")
		// Paced hard enough that the session cannot finish inside 150ms;
		// no retries, so the client gives up once the daemon is gone.
		started, done, _, _ := launch(client, "cli-drain-abort", 50000, serve.NoRetryPolicy())
		<-started
		daemon.Process.Signal(syscall.SIGTERM)
		err := daemon.Wait()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("dirty drain: want exit 1, got %v\n%s", err, dout.String())
		}
		if !strings.Contains(dout.String(), "1 aborted") {
			t.Errorf("daemon output missing aborted drain line:\n%s", dout.String())
		}
		<-done
	})
}

// TestBgqloadSessionsCLI runs the session chaos soak in miniature via
// the -selftest daemon: all gates green, report archived and readable.
func TestBgqloadSessionsCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "cmd/bgqload")
	reportPath := filepath.Join(t.TempDir(), "sessions.json")
	out, err := exec.Command(bin,
		"-selftest", "-sessions", "16", "-seed", "7", "-batch-every", "1",
		"-min-resumes", "1", "-json", reportPath).CombinedOutput()
	if err != nil {
		t.Fatalf("bgqload -sessions: %v\n%s", err, out)
	}
	for _, want := range []string{"0 lost, 0 mismatched, 0 duplicated", "all session gates passed"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("bgqload output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Completed int  `json:"completed"`
		Lost      int  `json:"lost"`
		Verified  bool `json:"verified"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 16 || rep.Lost != 0 || !rep.Verified {
		t.Fatalf("bad session report: %+v", rep)
	}
}
