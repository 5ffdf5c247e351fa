package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bgqflow/internal/cluster"
	"bgqflow/internal/obs"
)

// TestNonPlanCalls drives every request that is not a plan request, the
// gossip transport's included, against an httptest server. On a 200
// each call sends its method, path and body and decodes the reply. On a
// 500 each call that returns an error names the method, the path, the
// status and the first 512 bytes of the body; ackSession drops its
// error, and ClusterStatusAll leaves the failed member out.
func TestNonPlanCalls(t *testing.T) {
	failBody := "boom " + strings.Repeat("x", 600)
	var (
		mu     sync.Mutex
		status int
		reply  string
		sent   string // method, path and body of the last request
	)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		sent = r.Method + " " + r.URL.Path + " " + string(body)
		w.WriteHeader(status)
		if status == http.StatusOK {
			io.WriteString(w, reply)
		} else {
			io.WriteString(w, failBody)
		}
	}))
	t.Cleanup(hs.Close)
	c, err := NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRingClient([]cluster.Member{{ID: "r0", Addr: hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	gossip := newHTTPGossipTransport()
	ctx := context.Background()

	rows := []struct {
		call   string // method and path sent
		body   string // request body sent
		reply  string // the 200 body
		run    func() (any, error)
		want   any  // run's value on the 200
		silent bool // run reports no error; on the 500 it returns failed
		failed any
	}{
		{call: "GET /metrics", reply: `{"counters":{"c":7}}`,
			run:  func() (any, error) { return c.Metrics(ctx) },
			want: obs.MetricsSnapshot{Counters: map[string]int64{"c": 7}}},
		{call: "GET /v1/slo", reply: `{"enabled":true,"windowSec":30}`,
			run:  func() (any, error) { return c.SLO(ctx) },
			want: obs.SLOSnapshot{Enabled: true, WindowSec: 30}},
		{call: "GET /v1/trace", reply: `{"traceEvents":[]}`,
			run: func() (any, error) {
				b, err := c.TraceJSON(ctx)
				return string(b), err
			},
			want: `{"traceEvents":[]}`},
		{call: "GET /healthz", reply: `{"status":"ok"}`,
			run: func() (any, error) { return nil, c.Health(ctx) }},
		{call: "GET /v1/transfer/s-1", reply: `{"id":"s-1","state":"done","lastSeq":9}`,
			run:  func() (any, error) { return c.TransferStatus(ctx, "s-1") },
			want: SessionStatus{ID: "s-1", State: "done", LastSeq: 9}},
		{call: "POST /v1/transfer/s-1/heartbeat", body: `{}`, reply: `{"status":"ok"}`,
			run: func() (any, error) { return nil, c.Heartbeat(ctx, "s-1") }},
		{call: "POST /v1/transfer/s-1/ack", body: `{"seq":5}`, reply: `{"status":"ok"}`,
			run: func() (any, error) {
				c.ackSession(ctx, "s-1", 5)
				return nil, nil
			},
			silent: true},
		{call: "GET /v1/cluster", reply: `{"replica":"r0","vector":"r0:1","epoch":1}`,
			run:    func() (any, error) { return rc.ClusterStatusAll(ctx), nil },
			want:   map[string]ClusterStatus{"r0": {Replica: "r0", Vector: "r0:1", Epoch: 1}},
			silent: true, failed: map[string]ClusterStatus{}},
		{call: "POST /v1/gossip", body: `{"from":"r1","digest":{"r1":2}}`, reply: `{"from":"r0","digest":{"r0":1}}`,
			run: func() (any, error) {
				return gossip.Exchange(ctx, hs.URL, cluster.Message{From: "r1", Digest: cluster.Vector{"r1": 2}})
			},
			want: cluster.Message{From: "r0", Digest: cluster.Vector{"r0": 1}}},
	}
	for _, code := range []int{http.StatusOK, http.StatusInternalServerError} {
		for _, row := range rows {
			mu.Lock()
			status, reply = code, row.reply
			mu.Unlock()
			got, err := row.run()
			mu.Lock()
			if want := row.call + " " + row.body; sent != want {
				t.Errorf("%s (status %d): sent %q, want %q", row.call, code, sent, want)
			}
			mu.Unlock()
			switch {
			case code == http.StatusOK:
				if err != nil || !reflect.DeepEqual(got, row.want) {
					t.Errorf("%s: got %#v, %v; want %#v", row.call, got, err, row.want)
				}
			case row.silent:
				if err != nil || !reflect.DeepEqual(got, row.failed) {
					t.Errorf("%s on a 500: got %#v, %v; want %#v", row.call, got, err, row.failed)
				}
			case err == nil:
				t.Errorf("%s: no error on a 500", row.call)
			default:
				msg := err.Error()
				if !strings.Contains(msg, row.call+": status 500: "+failBody[:512]) || strings.Contains(msg, failBody[:513]) {
					t.Errorf("%s: error %q does not name the method, path, status and the body's first 512 bytes", row.call, msg)
				}
			}
		}
	}
}
