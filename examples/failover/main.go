// Failover: surviving link failures, both ahead of planning and in the
// middle of a transfer. The first half plans the same 64 MB transfer on
// a healthy partition and on partitions with pre-existing faults — the
// planner routes around anything that is already dead. The second half
// is the interesting case: links die *mid-flight*, the affected proxy
// pieces abort at the failure instant, and the resilient transfer loop
// detects the loss, replans the remaining bytes around the new faults,
// and degrades toward fewer proxies until everything lands. The whole
// recovery is recorded through the observability layer: the example
// writes a Perfetto trace (open it at ui.perfetto.dev) and asserts the
// span sequence — transfer running, fault instant, replan span, then
// completion — programmatically, on top of asserting full delivery.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"bgqflow/internal/core"
	"bgqflow/internal/faultinject"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/routing"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// tracePath is where the Perfetto trace of the recovery lands.
const tracePath = "failover-trace.json"

func main() {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	params := netsim.DefaultParams()
	src := torus.NodeID(0)
	dst := torus.NodeID(tor.Size() - 1)
	const bytes = 64 << 20

	fmt.Println("-- planning around pre-existing faults --")

	run := func(name string, fail func(net *netsim.Network)) {
		net := netsim.NewNetwork(tor, params.LinkBandwidth)
		if fail != nil {
			fail(net)
		}
		pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
		if err != nil {
			log.Fatal(err)
		}
		e, err := netsim.NewEngine(net, params)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := pl.PlanPair(e, src, dst, bytes)
		if err != nil {
			log.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %v with %d proxies: %5.2f GB/s\n",
			name, plan.Mode, len(plan.Proxies), netsim.Throughput(bytes, mk)/1e9)
	}

	run("healthy partition:", nil)

	run("default route loses a link:", func(net *netsim.Network) {
		def := routing.DeterministicRoute(tor, src, dst)
		net.FailLink(def.Links[2])
	})

	run("failure burst at the source:", func(net *netsim.Network) {
		// Kill four of the ten links out of the source node.
		net.FailLink(tor.LinkID(src, 2, torus.Plus))
		net.FailLink(tor.LinkID(src, 2, torus.Minus))
		net.FailLink(tor.LinkID(src, 3, torus.Plus))
		net.FailLink(tor.LinkID(src, 0, torus.Plus))
	})

	fmt.Println("\n-- recovering from mid-transfer failures --")

	// Plan against a healthy network, then let a seeded campaign fail
	// links while the transfer is in flight. The recovery loop notices
	// the aborted pieces (detection timeout from the Eq. 1-5 cost
	// model), replans them around the dead links, and keeps going.
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		log.Fatal(err)
	}
	// At the operating point, resilient transfers take each wave's
	// direct/proxy threshold from the Eq. 1-5 cost model.
	pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Record everything: the engine sink produces per-leg flow spans,
	// failure instants, and the link utilization timeline; the transfer's
	// recorder adds the wave / replan / degrade structure on top.
	rec := obs.NewRecorder()
	timeline := obs.NewLinkTimeline(1e-3)
	e.SetSink(rec.EngineSink("net", timeline))
	e.BeginInteractive()
	// Target the campaign at links the transfer actually uses — the
	// direct route plus the first hop of every proxy leg — so failures
	// are guaranteed to land mid-flight rather than on idle links.
	pool := routing.DeterministicRoute(tor, src, dst).Links
	for _, pr := range pl.SelectProxies(src, dst) {
		pool = append(pool, pr.Leg1.Links[0], pr.Leg2.Links[0])
	}
	camp := faultinject.TargetedLinks(42, pool, 5, sim.Time(10e-3))
	if err := camp.Apply(e); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign %q: %d in-use links fail within the first 10 ms\n",
		camp.Name, len(camp.Events))

	rc := core.DefaultRecoveryConfig()
	rc.Recorder, rc.Track = rec, "transfer"
	rep, err := pl.MoveResilient(e, src, dst, bytes, rc)
	if err != nil {
		log.Fatalf("recovery failed: %v", err)
	}
	done, aborted := e.Outcomes()
	fmt.Printf("delivered %d/%d bytes in %.2f ms: %d waves, %d replans, %d pieces aborted and rerouted\n",
		rep.Delivered, rep.Bytes, float64(rep.Makespan)*1e3, rep.Attempts, rep.Replans, aborted)
	fmt.Printf("flows: %d completed, %d aborted; final mode %v, effective %.2f GB/s\n",
		done, aborted, rep.FinalMode, netsim.Throughput(rep.Delivered, rep.Makespan)/1e9)

	if !rep.Complete || rep.Delivered != bytes {
		log.Fatalf("recovery left %d bytes undelivered", bytes-rep.Delivered)
	}
	fmt.Println("all bytes delivered despite mid-transfer failures")

	// Render the link utilization timeline as counter tracks and write
	// the whole recording as a Perfetto trace.
	rec.TimelineCounters(timeline,
		func(l int) string { return "util " + net.LinkName(l) },
		func(l int) float64 { return net.Capacity(l) })
	f, err := os.Create(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %d spans to %s — open it at ui.perfetto.dev\n", len(rec.Spans()), tracePath)

	assertSpanSequence(rec)
	fmt.Println("span sequence checks out: transfer -> fault -> replan -> completion")
}

// assertSpanSequence verifies the recovery's causal story as told by the
// trace: the overall transfer span opens first and completes (not
// aborted); the first fault instant lands inside it while flows are in
// flight; a replan span begins at or after that fault; and the transfer
// completes only after the last replan ends.
func assertSpanSequence(rec *obs.Recorder) {
	var transfer *obs.Span
	var firstReplan, lastReplan *obs.Span
	spans := rec.Spans()
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Track == "transfer" && !s.Aborted:
			transfer = s
		case strings.HasPrefix(s.Name, "replan "):
			if firstReplan == nil {
				firstReplan = s
			}
			lastReplan = s
		}
	}
	if transfer == nil {
		log.Fatal("trace has no completed transfer span")
	}
	if firstReplan == nil {
		log.Fatal("trace has no replan span")
	}
	var fault *obs.Instant
	for _, in := range rec.Instants() {
		if in.Track == "net/failures" {
			fault = &in
			break
		}
	}
	if fault == nil {
		log.Fatal("trace has no fault instant")
	}
	if !(transfer.Begin <= fault.At && fault.At < transfer.End) {
		log.Fatalf("fault at %v outside the transfer span [%v, %v]", fault.At, transfer.Begin, transfer.End)
	}
	if firstReplan.Begin < fault.At {
		log.Fatalf("replan begins at %v, before the first fault at %v", firstReplan.Begin, fault.At)
	}
	if transfer.End < lastReplan.End {
		log.Fatalf("transfer completes at %v, before the last replan ends at %v", transfer.End, lastReplan.End)
	}
}
