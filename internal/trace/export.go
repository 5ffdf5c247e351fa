package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
)

// ExportSchema is the schema version written by BuildExport. History:
// v1 (implicit, no "schema" field) had flow timelines and total link
// loads only; v2 adds the "schema" field, abort records, and optional
// time-bucketed link utilization timelines.
const ExportSchema = 2

// FlowRecord is one flow's timeline in an exported trace.
type FlowRecord struct {
	ID          int     `json:"id"`
	Src         int     `json:"src"`
	Dst         int     `json:"dst"`
	Bytes       int64   `json:"bytes"`
	Label       string  `json:"label,omitempty"`
	ReleasedS   float64 `json:"released"`
	ActivatedS  float64 `json:"activated"`
	TransferEnd float64 `json:"transferEnd"`
	CompletedS  float64 `json:"completed"`
	// Aborted marks a flow killed by a failure event (its path crossed a
	// link that died mid-flight, or a dependency aborted); AbortedS is the
	// failure instant.
	Aborted  bool    `json:"aborted,omitempty"`
	AbortedS float64 `json:"abortedAt,omitempty"`
}

// LinkRecord is one link's total load in an exported trace.
type LinkRecord struct {
	ID    int     `json:"id"`
	Name  string  `json:"name"`
	Bytes float64 `json:"bytes"`
	Util  float64 `json:"util"`
}

// TimelineRecord is the time-bucketed utilization of one link: Util[i]
// is the link's mean utilization over bucket i (i*BucketS of the parent
// Timeline record to (i+1)*BucketS).
type TimelineRecord struct {
	ID   int       `json:"id"`
	Name string    `json:"name"`
	Util []float64 `json:"util"`
}

// Timeline is the optional time-resolved section of an export (schema 2):
// per-link utilization sampled into fixed-width buckets.
type Timeline struct {
	BucketS float64          `json:"bucketSeconds"`
	Links   []TimelineRecord `json:"links"`
}

// Export is a machine-readable run summary for external tooling
// (timeline viewers, notebooks).
type Export struct {
	Schema    int          `json:"schema"` // see ExportSchema
	MakespanS float64      `json:"makespan"`
	Flows     []FlowRecord `json:"flows"`
	Links     []LinkRecord `json:"links"`              // loaded links only
	Timeline  *Timeline    `json:"timeline,omitempty"` // when a LinkTimeline was attached
}

// BuildExport collects the run's flow timelines and link loads. specs,
// when non-nil, must be the FlowSpecs in submission order; pass nil to
// read them back from the engine.
func BuildExport(e *netsim.Engine, makespan sim.Duration, specs []netsim.FlowSpec) (Export, error) {
	if specs == nil {
		specs = make([]netsim.FlowSpec, e.NumFlows())
		for i := range specs {
			specs[i] = e.Spec(netsim.FlowID(i))
		}
	}
	if len(specs) != e.NumFlows() {
		return Export{}, fmt.Errorf("trace: %d specs for %d flows", len(specs), e.NumFlows())
	}
	ex := Export{Schema: ExportSchema, MakespanS: float64(makespan)}
	for i, spec := range specs {
		r := e.Result(netsim.FlowID(i))
		ex.Flows = append(ex.Flows, FlowRecord{
			ID:          i,
			Src:         int(spec.Src),
			Dst:         int(spec.Dst),
			Bytes:       spec.Bytes,
			Label:       spec.Label,
			ReleasedS:   float64(r.Released),
			ActivatedS:  float64(r.Activated),
			TransferEnd: float64(r.TransferEnd),
			CompletedS:  float64(r.Completed),
			Aborted:     r.Aborted,
			AbortedS:    float64(r.AbortTime),
		})
	}
	for l, b := range e.LinkBytes() {
		if b <= 0 {
			continue
		}
		ex.Links = append(ex.Links, LinkRecord{
			ID:    l,
			Name:  e.Network().LinkName(l),
			Bytes: b,
			Util:  LinkUtilization(e, makespan, l),
		})
	}
	return ex, nil
}

// WriteJSON serializes the export.
func (ex Export) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ex)
}

// AttachTimeline fills the export's time-resolved section from a link
// timeline (typically fed by an obs.EngineSink attached to the engine
// for the run): per-link utilization against the network's capacities,
// loaded links only. It stamps the export at schema 2.
func (ex *Export) AttachTimeline(e *netsim.Engine, tl *obs.LinkTimeline) {
	ex.Schema = ExportSchema
	t := &Timeline{BucketS: float64(tl.Bucket())}
	for _, l := range tl.Links() {
		t.Links = append(t.Links, TimelineRecord{
			ID:   l,
			Name: e.Network().LinkName(l),
			Util: tl.Utilization(l, e.Network().Capacity(l)),
		})
	}
	ex.Timeline = t
}
