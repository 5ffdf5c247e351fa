package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgqflow/internal/obs"
	"bgqflow/internal/serve"
)

func newSessionDaemon(t *testing.T, cfg serve.Config) *serve.Client {
	t.Helper()
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client, err := serve.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

// TestRunSessionsVerifiedChaos is the in-process miniature of the chaos
// soak: concurrent sessions with client campaigns, forced disconnects,
// server-side fault events, and combining — all gates green, every
// report byte-verified against the direct-run oracle.
func TestRunSessionsVerifiedChaos(t *testing.T) {
	client := newSessionDaemon(t, serve.Config{BatchWindow: 50 * time.Millisecond})
	opts := SessionOptions{
		Sessions:      24,
		Seed:          7,
		PaceUS:        500,
		CampaignEvery: 5,
		BatchEvery:    1, // every non-campaign session is combinable; the
		// burst pattern supplies the same-pair runs that actually combine
		DropEvery:   4,
		FaultEvents: 2,
		Verify:      true,
		Timeout:     time.Minute,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := RunSessions(ctx, client, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(SessionCriteria{
		MinCompleted:      24,
		MinResumes:        1,
		MinPeakConcurrent: 8,
		RequireVerified:   true,
	}); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 24 || rep.Lost != 0 || rep.Mismatched != 0 || rep.Duplicated != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.FaultsPosted == 0 {
		t.Error("no server-side fault events posted")
	}
	if rep.BatchedMembers == 0 {
		t.Error("no session was combined despite a batch window and the burst pattern")
	}
	// Round-trip the archive format.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SessionReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Completed != rep.Completed || back.Seed != rep.Seed {
		t.Fatalf("archive round-trip mangled the report: %+v", back)
	}
}

// TestRunSessionsOptionValidation covers the option guards.
func TestRunSessionsOptionValidation(t *testing.T) {
	client := newSessionDaemon(t, serve.Config{})
	ctx := context.Background()
	for _, o := range []SessionOptions{
		{Sessions: -1},
		{Shape: "bogus"},
		{Pattern: "nonsense"},
		{DropEvery: -1},
	} {
		if _, err := RunSessions(ctx, client, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

// TestSessionCriteriaGates exercises every gate message.
func TestSessionCriteriaGates(t *testing.T) {
	rep := SessionReport{Completed: 5, Lost: 1, Mismatched: 2, Duplicated: 3}
	err := rep.Check(SessionCriteria{MinCompleted: 10, MinResumes: 1, MinPushedFaults: 1, MinPeakConcurrent: 4})
	if err == nil {
		t.Fatal("bad report passed the gates")
	}
	for _, want := range []string{"lost", "duplicated", "diverged", "completed", "resumes", "pushed faults", "concurrency"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error %q missing %q", err, want)
		}
	}
	clean := SessionReport{Completed: 10, Resumes: 2, PushedFaults: 2, PeakConcurrent: 8}
	if err := clean.Check(SessionCriteria{MinCompleted: 10, MinResumes: 1, MinPushedFaults: 1, MinPeakConcurrent: 4}); err != nil {
		t.Fatalf("clean report failed: %v", err)
	}
}

// A soak whose last sessions end during a daemon restart meets no
// listener until the new daemon binds; the closing fetches must wait for
// it rather than report no metrics and no SLO verdicts.
func TestClosingSnapshotsWaitForLateListener(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "bgqd.sock")
	client, err := serve.NewClient("unix://" + sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{
		StatsWindow: 10 * time.Second,
		SLOs: []obs.SLOSpec{{Name: "plan_p99", Kind: obs.SLOLatencyP99,
			Metric: "serve/window/plan_latency_ms", Threshold: 60_000}},
	})
	defer srv.Close()
	hs := &http.Server{Handler: srv.Handler()}
	defer hs.Close()
	bound := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		l, err := net.Listen("unix", sock)
		bound <- err
		if err == nil {
			hs.Serve(l)
		}
	}()
	policy := serve.RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 500 * time.Millisecond, Jitter: 0.25, RetryConn: true}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	metrics, slo := closingSnapshots(ctx, client, policy)
	if err := <-bound; err != nil {
		t.Fatal(err)
	}
	if metrics == nil || slo == nil {
		t.Fatalf("closing fetches got metrics %v, SLO %v: they gave up before the listener bound", metrics != nil, slo != nil)
	}
}
