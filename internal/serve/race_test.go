package serve_test

// The concurrency hammer: one daemon, 64 goroutines of mixed identical
// and distinct requests, with fault events from two concurrent posters
// landing mid-storm. Run under -race (tier-1: go test -race
// ./internal/serve). Asserts:
//
//   - every request is answered 200 (queue sized to avoid shedding);
//   - coalescing/caching worked: plans computed < requests served, and
//     cache_hits + coalesced > 0 (the obs counters, not a guess);
//   - no lost invalidation: every response stamped with the post-fault
//     epoch avoids the failed link (responses that raced the event may
//     carry the old epoch and the old route — that is the serializable
//     "request before fault" outcome — but a post-epoch response built
//     from stale faults would be a correctness bug);
//   - every answer is byte-identical to a direct ComputePair under the
//     fault set of the epoch it was served at.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
)

func TestConcurrentHammerCoalescingAndInvalidation(t *testing.T) {
	// Tracing on: the hammer doubles as the race check for the wall
	// recorder's span rings under concurrent plan traffic.
	srv, client := newTestDaemon(t, serve.Config{Workers: 4, QueueDepth: 4096, TraceEvents: 1 << 14})
	ctx := context.Background()

	// The hot request every goroutine repeats, and the link its unfaulted
	// plan rides — the fault event targets that link.
	hot := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20}
	pre, err := client.PlanPair(ctx, hot)
	if err != nil || !pre.OK() {
		t.Fatalf("warmup: %v status %d", err, pre.Status)
	}
	var prePlan serve.PairPlan
	if err := json.Unmarshal(pre.Plan, &prePlan); err != nil {
		t.Fatal(err)
	}
	target := prePlan.Flows[0].Links[0]
	fl, ok := linkToFail(t, testShape, target)
	if !ok {
		t.Fatalf("cannot invert link %d", target)
	}

	const goroutines = 64
	const perG = 8
	type answer struct {
		epoch uint64
		req   serve.PairRequest
		plan  []byte
	}
	var (
		mu      sync.Mutex
		hotAns  []answer
		allAns  []answer
		wg      sync.WaitGroup
		barrier = make(chan struct{})
		// eventLinks maps each acknowledged event's epoch to its links;
		// no event clears, so the fault set at epoch e is the union of
		// the events at or below e.
		eventLinks = map[uint64][]scenario.FailLink{}
	)
	var postEpoch uint64
	wg.Add(goroutines + 2)
	// The fault event races the request storm.
	go func() {
		defer wg.Done()
		<-barrier
		ep, ferr := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}})
		if ferr != nil {
			t.Errorf("fault: %v", ferr)
			return
		}
		mu.Lock()
		postEpoch = ep
		eventLinks[ep] = []scenario.FailLink{fl}
		mu.Unlock()
	}()
	// A second poster races both: +direction failures in the extent-2
	// dimensions (A and E), where every minimal route keeps a same-length
	// detour, so no request fails for want of a route.
	go func() {
		defer wg.Done()
		<-barrier
		for k := 0; k < 6; k++ {
			links := []scenario.FailLink{{Node: (11 + 37*k) % 128, Dim: []int{0, 4}[k%2], Dir: 1}}
			ep, ferr := client.Fault(ctx, serve.FaultEvent{Links: links})
			if ferr != nil {
				t.Errorf("fault %d: %v", k, ferr)
				return
			}
			mu.Lock()
			eventLinks[ep] = links
			mu.Unlock()
		}
	}()
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			<-barrier
			for i := 0; i < perG; i++ {
				req := hot
				if i%2 == 1 {
					// Distinct per (goroutine, iteration): genuine plan work.
					req = serve.PairRequest{
						Shape: testShape,
						Src:   g % 128,
						Dst:   (g*perG + i*37 + 5) % 128,
						Bytes: int64(1+i) << 20,
					}
				}
				// Even iterations repeat the identical hot request — the
				// coalescing/caching target.
				res, rerr := client.PlanPair(ctx, req)
				if rerr != nil {
					t.Errorf("g%d/%d: %v", g, i, rerr)
					continue
				}
				if !res.OK() {
					// Self-pairs in the distinct mix are rejected 400; anything
					// else is a failure. No shedding: the queue is deep enough.
					if res.Status == 400 && i%2 == 1 {
						continue
					}
					t.Errorf("g%d/%d: status %d: %s", g, i, res.Status, res.Err)
					continue
				}
				mu.Lock()
				a := answer{res.Epoch, req, res.Plan}
				allAns = append(allAns, a)
				if i%2 == 0 {
					hotAns = append(hotAns, a)
				}
				mu.Unlock()
			}
		}(g)
	}
	close(barrier)
	wg.Wait()

	// Coalescing actually happened: the server computed strictly fewer
	// plans than it served, and says so in its own counters.
	snap := srv.Registry().Snapshot()
	requests := snap.Counters["serve/requests"]
	computed := snap.Counters["serve/plans_computed"]
	saved := snap.Counters["serve/cache_hits"] + snap.Counters["serve/coalesced"]
	if computed >= requests {
		t.Errorf("plans_computed %d >= requests %d: no coalescing/caching", computed, requests)
	}
	if saved == 0 {
		t.Error("cache_hits + coalesced = 0")
	}
	if shed := snap.Counters["serve/shed"]; shed != 0 {
		t.Errorf("%d requests shed despite deep queue", shed)
	}

	// No lost invalidation across the concurrent epoch bump.
	if postEpoch == 0 {
		t.Fatal("fault goroutine never ran")
	}
	postSeen := 0
	for _, a := range hotAns {
		if a.epoch < postEpoch {
			continue // raced the fault; pre-event plan is the correct answer
		}
		postSeen++
		var p serve.PairPlan
		if err := json.Unmarshal(a.plan, &p); err != nil {
			t.Fatal(err)
		}
		for _, f := range p.Flows {
			for _, l := range f.Links {
				if l == target {
					t.Fatalf("epoch-%d response uses link %d failed at epoch %d (lost invalidation)",
						a.epoch, target, postEpoch)
				}
			}
		}
	}
	// And the daemon's final answer must definitely avoid the link.
	res, err := client.PlanPair(ctx, hot)
	if err != nil || !res.OK() {
		t.Fatalf("final plan: %v status %d", err, res.Status)
	}
	if res.Epoch != srv.Epoch() || res.Epoch < postEpoch {
		t.Fatalf("final epoch %d, want the server's %d (target failed at %d)", res.Epoch, srv.Epoch(), postEpoch)
	}
	var p serve.PairPlan
	if err := json.Unmarshal(res.Plan, &p); err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Flows {
		for _, l := range f.Links {
			if l == target {
				t.Fatal("final post-fault plan still uses the failed link")
			}
		}
	}

	// Differential: every answer is the plan of the fault set at the
	// epoch it was served at.
	if len(eventLinks) != 7 {
		t.Fatalf("%d fault events acknowledged, want 7", len(eventLinks))
	}
	for _, a := range allAns {
		var faults []scenario.FailLink
		for ep := uint64(1); ep <= a.epoch; ep++ {
			faults = append(faults, eventLinks[ep]...)
		}
		want, err := serve.ComputePair(a.req, faults)
		if err != nil {
			t.Fatalf("direct plan of %+v at epoch %d: %v", a.req, a.epoch, err)
		}
		if wb, _ := json.Marshal(want); !bytes.Equal(a.plan, wb) {
			t.Fatalf("epoch-%d answer for %+v differs from a direct call under that epoch's faults", a.epoch, a.req)
		}
	}
	t.Logf("hammer: %d requests, %d computed, %d saved, %d post-epoch hot answers",
		requests, computed, saved, postSeen)
}

// TestConcurrentSessionsPushedFaultReplay is the session-layer arm of
// the hammer, run under -race: a pack of paced transfer sessions on one
// hot pair, a fault event landing mid-flight, and a client-side
// differential check per session — every streamed report must byte-match
// a direct MoveResilient replay of that session's recorded timeline
// (fault-set snapshot + pushed-fault instants through PushedInterject).
func TestConcurrentSessionsPushedFaultReplay(t *testing.T) {
	// Tracing on: session spans, pushed-fault instants, and the MergeSim
	// at finish all run under the race detector here.
	srv, client := newTestDaemon(t, serve.Config{TraceEvents: 1 << 14})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// The link the unfaulted hot-pair plan rides: failing it mid-session
	// forces replans in every session still in flight.
	hot := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 32 << 20}
	pre, err := client.PlanPair(ctx, hot)
	if err != nil || !pre.OK() {
		t.Fatalf("warmup: %v status %d", err, pre.Status)
	}
	var prePlan serve.PairPlan
	if err := json.Unmarshal(pre.Plan, &prePlan); err != nil {
		t.Fatal(err)
	}
	fl, ok := linkToFail(t, testShape, prePlan.Flows[0].Links[0])
	if !ok {
		t.Fatal("cannot invert plan link")
	}

	const sessions = 8
	outs := make([]serve.TransferOutcome, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	waveSeen := make(chan struct{})
	var waveOnce sync.Once
	wg.Add(sessions + 1)
	go func() {
		// The fault event waits for the first wave frame, then races the
		// in-flight pack.
		defer wg.Done()
		<-waveSeen
		if _, ferr := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{fl}}); ferr != nil {
			t.Errorf("fault: %v", ferr)
		}
	}()
	for i := 0; i < sessions; i++ {
		go func(i int) {
			defer wg.Done()
			req := serve.TransferRequest{
				ID:    fmt.Sprintf("s-hammer-%d", i),
				Shape: testShape, Src: 0, Dst: 97, Bytes: 32 << 20,
				PaceUS: 2000, // stretch wall-clock so the fault lands mid-flight
			}
			outs[i], errs[i] = client.Transfer(ctx, req, serve.TransferOpts{
				OnFrame: func(f serve.SessionFrame) {
					if f.Type == "wave" {
						waveOnce.Do(func() { close(waveSeen) })
					}
				},
			})
		}(i)
	}
	wg.Wait()

	pushedSessions := 0
	pushedFrames := 0
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if outs[i].Err != "" {
			t.Fatalf("session %d: server-side error: %s", i, outs[i].Err)
		}
		if len(outs[i].Pushed) > 0 {
			pushedSessions++
			pushedFrames += len(outs[i].Pushed)
		}
		req := serve.TransferRequest{
			ID:    fmt.Sprintf("s-hammer-%d", i),
			Shape: testShape, Src: 0, Dst: 97, Bytes: 32 << 20,
		}
		rep, derr := serve.RunTransfer(req, outs[i].Faults, serve.TransferHooks{
			Interject: serve.PushedInterject(outs[i].Pushed),
		})
		if derr != nil {
			t.Fatalf("session %d replay: %v", i, derr)
		}
		want, _ := json.Marshal(rep)
		if !bytes.Equal(outs[i].Report, want) {
			t.Errorf("session %d: streamed report diverges from replay\nstreamed: %s\nreplayed: %s",
				i, outs[i].Report, want)
		}
	}
	if pushedSessions == 0 {
		t.Fatal("the fault event reached no session mid-flight; the push path was not exercised")
	}
	snap := srv.Registry().Snapshot()
	if got := snap.Counters["serve/faults_pushed"]; got != int64(pushedFrames) {
		t.Errorf("faults_pushed = %d, want %d (one per streamed fault frame)", got, pushedFrames)
	}
	if snap.Counters["serve/replans_pushed"] == 0 {
		t.Error("replans_pushed = 0: no replan was attributed to the pushed fault")
	}
	t.Logf("session hammer: %d/%d sessions took the pushed fault (%d frames), replans_pushed=%d",
		pushedSessions, sessions, pushedFrames, snap.Counters["serve/replans_pushed"])
}
