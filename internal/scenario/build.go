package scenario

import (
	"fmt"
	"os"

	"bgqflow/internal/collio"
	"bgqflow/internal/core"
	"bgqflow/internal/faultinject"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
	"bgqflow/internal/stats"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
	"bgqflow/internal/workload"
)

// Built is one scenario built and run: the fabric, what the planner
// decided on it, and the simulated outcome. bgqsim reports it as a
// Result; bgqd encodes its wire plans from it.
type Built struct {
	Config Config
	// Torus is the partition, nil off the torus; Topo is the fabric
	// either way.
	Torus *torus.Torus
	Topo  topo.Topology
	// IO and Job are set for io scenarios only.
	IO     *ionet.System
	Job    *mpisim.Job
	Engine *netsim.Engine
	// Makespan is the simulated time of the data movement.
	Makespan sim.Duration

	// The planner's decision; exactly one is set. Pair is a direct plan
	// off the torus; Resilient replaces Pair when a pair transfer runs
	// under a fault campaign.
	Pair      *core.PairPlan
	Group     *core.GroupPlan
	Agg       *core.AggPlan
	CollIO    *collio.Plan
	Resilient *core.TransferReport

	campaign    *faultinject.Campaign
	recoveryErr error // why the resilient loop gave up, if it did
	timeline    *obs.LinkTimeline
}

// LinkID returns the ID of the torus link fl names on tor; ok is false
// when fl names no link of tor.
func (fl FailLink) LinkID(tor *torus.Torus) (id int, ok bool) {
	if fl.Node < 0 || fl.Node >= tor.Size() || fl.Dim < 0 || fl.Dim >= tor.Dims() {
		return 0, false
	}
	switch fl.Dir {
	case 1:
		return tor.LinkID(torus.NodeID(fl.Node), fl.Dim, torus.Plus), true
	case -1:
		return tor.LinkID(torus.NodeID(fl.Node), fl.Dim, torus.Minus), true
	}
	return 0, false
}

// Run executes the scenario.
func Run(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	b, err := Build(c, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return b.Result()
}

// Build builds and runs a validated scenario in five steps: fabric,
// faults, job and workload, planner, run. c.FailLinks are the
// scenario's own faults, and one that names no link of the torus is an
// error. faults is a fault set kept outside the scenario, such as
// bgqd's: an entry applies only where it names a link of this torus,
// and none applies off the torus. When reads is non-nil it records
// every fault read made after the fault step.
func Build(c Config, faults []FailLink, reads *netsim.FaultReads) (*Built, error) {
	b := &Built{Config: c}
	params := netsim.DefaultParams()
	var err error
	if c.Topology != "" {
		if b.Topo, err = topo.Parse(c.Topology); err != nil {
			return nil, err
		}
	} else {
		var shape torus.Shape
		if shape, err = torus.ParseShape(c.Shape); err != nil {
			return nil, err
		}
		if b.Torus, err = torus.New(shape); err != nil {
			return nil, err
		}
		b.Topo = topo.NewTorus(b.Torus)
	}
	net := netsim.NewNetworkTopo(b.Topo, params.LinkBandwidth)
	if c.IO != nil {
		// Before the faults: the failed-link table is sized by the first
		// failure, and a node failure marks its bridge's 11th link in it.
		if b.IO, err = ionet.Build(net); err != nil {
			return nil, err
		}
	}
	if b.Torus != nil {
		if err := failLinks(b.Torus, net, c.FailLinks, faults); err != nil {
			return nil, err
		}
	}
	if reads != nil {
		net.RecordFaultReads(reads)
	}
	var data []int64
	if c.IO != nil {
		mapping := mpisim.DefaultMapOrder
		if c.Mapping != "" {
			mapping = mpisim.MapOrder(c.Mapping)
		}
		if b.Job, err = mpisim.NewJobWithMapping(b.Torus, c.RanksPerNode, mapping); err != nil {
			return nil, err
		}
		if data, err = c.IO.burst(b.Job.NumRanks(), c.Seed); err != nil {
			return nil, err
		}
	}
	if b.Engine, err = netsim.NewEngine(net, params); err != nil {
		return nil, err
	}
	if c.CollectTrace {
		b.timeline = obs.NewLinkTimeline(traceBucket)
		b.Engine.SetSink(obs.TimelineSink{TL: b.timeline})
	}
	switch {
	case c.Topology != "":
		b.planDirect()
	case c.IO != nil:
		err = b.planIO(data)
	case c.Transfer.Kind == "group":
		err = b.planGroup()
	default:
		err = b.planPair()
	}
	if err != nil {
		return nil, err
	}
	if b.Resilient == nil {
		if b.Makespan, err = b.Engine.Run(); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// failLinks fails the scenario's own links, strictly, and the links of
// the outside fault set that are on the torus.
func failLinks(tor *torus.Torus, net *netsim.Network, own, faults []FailLink) error {
	for _, fl := range own {
		id, ok := fl.LinkID(tor)
		if !ok {
			if _, onTorus := (FailLink{Node: fl.Node, Dim: fl.Dim, Dir: 1}).LinkID(tor); onTorus {
				return fmt.Errorf("scenario: failLink dir %d must be +1 or -1", fl.Dir)
			}
			return fmt.Errorf("scenario: bad failLink %+v", fl)
		}
		net.FailLink(id)
	}
	for _, fl := range faults {
		if id, ok := fl.LinkID(tor); ok {
			net.FailLink(id)
		}
	}
	return nil
}

// burst generates the io scenario's per-rank write sizes.
func (io *IOConfig) burst(ranks int, seed int64) ([]int64, error) {
	switch io.Workload {
	case "pattern1":
		return workload.Uniform(ranks, io.MaxBytes, seed), nil
	case "pattern2":
		return workload.Pattern2(ranks, io.MaxBytes, seed), nil
	case "dense":
		return workload.Dense(ranks, io.MaxBytes), nil
	case "hacc":
		return workload.HACC(ranks, io.MaxBytes/workload.HACCRecordBytes), nil
	case "file":
		f, err := os.Open(io.BurstFile)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		burst, err := workload.ReadBurst(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		return burst.FitToRanks(ranks), nil
	}
	return nil, fmt.Errorf("scenario: unknown workload %q", io.Workload)
}

// planDirect submits the direct pair transfer of a non-torus fabric.
func (b *Built) planDirect() {
	t := b.Config.Transfer
	id := b.Engine.Submit(netsim.FlowSpec{
		Src:   torus.NodeID(t.Src),
		Dst:   torus.NodeID(t.Dst),
		Bytes: t.Bytes,
		Label: "direct",
	})
	b.Pair = &core.PairPlan{Mode: core.Direct, Bytes: t.Bytes, Flows: []netsim.FlowID{id}, Final: []netsim.FlowID{id}}
}

// planPair runs Algorithm 1 for a pair transfer, or, under a fault
// campaign, the resilient transfer loop (detect, replan, degrade) to
// completion. Both decide on t.Proxies as core.ProxyConfig.Proxies.
func (b *Built) planPair() error {
	t, tor, e := b.Config.Transfer, b.Torus, b.Engine
	if t.Src < 0 || t.Src >= tor.Size() || t.Dst < 0 || t.Dst >= tor.Size() {
		return fmt.Errorf("scenario: pair endpoints outside torus of %d nodes", tor.Size())
	}
	src, dst := torus.NodeID(t.Src), torus.NodeID(t.Dst)
	pl, err := core.NewPairPlanner(tor, core.ProxyConfig{Proxies: t.Proxies})
	if err != nil {
		return err
	}
	if fc := b.Config.FaultCampaign; fc != nil {
		camp, err := fc.Build(tor)
		if err != nil {
			return err
		}
		e.BeginInteractive()
		if err := camp.Apply(e); err != nil {
			return err
		}
		b.campaign = camp
		rep, rerr := pl.MoveResilient(e, src, dst, t.Bytes, core.DefaultRecoveryConfig())
		b.Resilient, b.recoveryErr, b.Makespan = &rep, rerr, rep.Makespan
		return nil
	}
	plan, err := pl.PlanPair(e, src, dst, t.Bytes)
	if err != nil {
		return err
	}
	b.Pair = &plan
	return nil
}

// planGroup plans a group-to-group transfer and schedules the campaign.
func (b *Built) planGroup() error {
	t := b.Config.Transfer
	sBox, err := torus.NewBox(b.Torus, t.SrcOrigin, t.SrcExtent)
	if err != nil {
		return fmt.Errorf("scenario: srcBox: %w", err)
	}
	dBox, err := torus.NewBox(b.Torus, t.DstOrigin, t.DstExtent)
	if err != nil {
		return fmt.Errorf("scenario: dstBox: %w", err)
	}
	gp := core.NewGroupPlanner(b.Torus, core.ProxyConfig{Proxies: t.Proxies})
	plan, err := gp.Plan(b.Engine, sBox, dBox, t.Bytes)
	if err != nil {
		return err
	}
	b.Group = &plan
	return b.applyCampaign()
}

// planIO plans the write burst under the scenario's approach and
// schedules the campaign.
func (b *Built) planIO(data []int64) error {
	e := b.Engine
	switch b.Config.IO.Approach {
	case "topology-aware":
		pl, err := core.NewAggPlanner(b.IO, b.Job, e.Params(), core.DefaultAggConfig())
		if err != nil {
			return err
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			return err
		}
		b.Agg = &plan
	case "collective-io":
		pl, err := collio.NewPlanner(b.IO, b.Job, e.Params(), collio.DefaultConfig())
		if err != nil {
			return err
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			return err
		}
		b.CollIO = &plan
	default:
		return fmt.Errorf("scenario: unknown approach %q", b.Config.IO.Approach)
	}
	return b.applyCampaign()
}

// applyCampaign schedules the scenario's fault campaign, if it has one,
// against the submitted flows.
func (b *Built) applyCampaign() error {
	fc := b.Config.FaultCampaign
	if fc == nil {
		return nil
	}
	camp, err := fc.Build(b.Torus)
	if err != nil {
		return err
	}
	b.campaign = camp
	return camp.Apply(b.Engine)
}

// campaignNotes reports the campaign's events, with suffix appended,
// and the flow outcomes it left; nil without a campaign.
func (b *Built) campaignNotes(suffix string) []string {
	if b.campaign == nil {
		return nil
	}
	done, aborted := b.Engine.Outcomes()
	return []string{
		fmt.Sprintf("fault campaign %q: %d events%s", b.campaign.Name, len(b.campaign.Events), suffix),
		fmt.Sprintf("outcomes: %d flows completed, %d aborted", done, aborted),
	}
}

// Result reports the built scenario as bgqsim prints it.
func (b *Built) Result() (Result, error) {
	var res Result
	c, e, mk := b.Config, b.Engine, b.Makespan
	switch {
	case b.Resilient != nil:
		rep := b.Resilient
		if rep.Delivered > 0 && rep.Makespan > 0 {
			res.GBps = netsim.Throughput(rep.Delivered, rep.Makespan) / 1e9
		}
		res.MakespanMS = float64(rep.Makespan) * 1e3
		res.Mode = fmt.Sprintf("resilient %v (%d replans)", rep.FinalMode, rep.Replans)
		res.Notes = append(res.Notes, fmt.Sprintf("fault campaign %q: %d events; delivered %d of %d bytes",
			b.campaign.Name, len(b.campaign.Events), rep.Delivered, rep.Bytes))
		if rep.Degraded {
			res.Notes = append(res.Notes, "recovery degraded the proxy count mid-transfer")
		}
		if b.recoveryErr != nil {
			res.Notes = append(res.Notes, fmt.Sprintf("recovery gave up: %v", b.recoveryErr))
		}
	case c.IO != nil:
		var total int64
		var meta float64
		if p := b.Agg; p != nil {
			total, meta = p.TotalBytes, float64(p.Metadata)
			res.Mode = fmt.Sprintf("topology-aware: %d aggregators (%d/pset), %d senders",
				p.NumAggregators, p.AggPerPset, p.Senders)
		} else {
			p := b.CollIO
			total, meta = p.TotalBytes, float64(p.Metadata)
			res.Mode = fmt.Sprintf("collective-io: %d aggregators, %d rounds", p.NumAggregators, p.Rounds)
		}
		res.Notes = b.campaignNotes("")
		res.GBps = float64(total) / (float64(mk) + meta) / 1e9
		res.MakespanMS = (float64(mk) + meta) * 1e3
		res.UplinkImbalance = stats.ImbalanceRatio(trace.UplinkLoads(e, b.IO))
		res.Notes = append(res.Notes,
			fmt.Sprintf("burst %.2f GB over %d ranks (%s mapping)", float64(total)/1e9, b.Job.NumRanks(), b.Job.Order()))
	default:
		res.GBps = netsim.Throughput(c.Transfer.Bytes, mk) / 1e9
		res.MakespanMS = float64(mk) * 1e3
		// Only the scenario's own faults: a fault set from outside it
		// reaches the output only through the plan, which records its
		// reads.
		if n := len(c.FailLinks); n > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%d links failed; planning around them", n))
		}
		switch {
		case b.Group != nil:
			res.Mode = fmt.Sprintf("%v groups=%v directPairs=%d", b.Group.Mode, b.Group.Groups, b.Group.DirectPairs)
			res.Notes = append(res.Notes, b.campaignNotes(" (no recovery for group transfers)")...)
		case b.Torus == nil:
			res.Mode = fmt.Sprintf("direct on %s", b.Topo.Spec())
		default:
			res.Mode = fmt.Sprintf("%v (%d proxies)", b.Pair.Mode, len(b.Pair.Proxies))
		}
	}
	if c.CollectTrace {
		ex, err := trace.BuildExport(e, mk, nil)
		if err != nil {
			return res, err
		}
		ex.AttachTimeline(e, b.timeline)
		res.Trace = &ex
	}
	return res, nil
}

// traceBucket is the timeline resolution of collected traces: 1 ms
// buckets resolve the multi-millisecond transfers scenarios run.
const traceBucket sim.Duration = 1e-3
