// Package mpisim provides the MPI-shaped substrate the paper's algorithms
// run on: the mapping from MPI ranks to torus nodes, analytic prices for
// the metadata collectives the algorithms use (Allreduce of the total
// data size, Bcast of the aggregator list, Allgather of coordinates)
// over a rank count, and an SPMD Runtime whose ranks Put, Send, Recv,
// Barrier and Compute on the simulated torus.
//
// Ranks are mapped to nodes in block order (the BG/Q "ABCDET" default):
// ranks r*K .. r*K+K-1 live on node r, where K is the ranks-per-node
// count, and nodes are ordered row-major over the torus coordinates.
//
// The collective prices are deliberately simple tree models built from
// the netsim endpoint parameters, checked against a simulated binomial
// broadcast (BuildBcastFlows); the paper asserts (and our experiments
// confirm) that these metadata costs are negligible next to the data
// movement itself, so fidelity beyond the right order of magnitude is
// not required. The subcommunicator Algorithm 2 forms over a 5-D block
// appears only as its rank 0, the block's lead (Job.FirstRankOn).
package mpisim

import (
	"fmt"
	"math/bits"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// Job is a parallel job: a partition plus a rank layout.
type Job struct {
	tor       *torus.Torus
	numRanks  int
	order     MapOrder
	rankNode  []torus.NodeID
	nodeRanks [][]int
}

// NewJob lays out ranksPerNode ranks on every node of tor under the
// default block mapping (consecutive ranks fill a node before moving to
// the next, the BG/Q "ABCDET" order).
func NewJob(tor *torus.Torus, ranksPerNode int) (*Job, error) {
	return NewJobWithMapping(tor, ranksPerNode, orderFor(tor.Dims()))
}

// Torus returns the job's partition.
func (j *Job) Torus() *torus.Torus { return j.tor }

// NumRanks returns the total number of MPI ranks.
func (j *Job) NumRanks() int { return j.numRanks }

// NodeOf returns the node hosting a rank.
func (j *Job) NodeOf(rank int) torus.NodeID {
	if rank < 0 || rank >= j.numRanks {
		panic(fmt.Sprintf("mpisim: rank %d outside [0,%d)", rank, j.numRanks))
	}
	return j.rankNode[rank]
}

// RanksOn returns the ranks hosted by a node, in ascending order.
func (j *Job) RanksOn(node torus.NodeID) []int {
	return append([]int(nil), j.nodeRanks[node]...)
}

// FirstRankOn returns the lowest rank a node hosts — rank 0 of a
// subcommunicator whose first node it is — without RanksOn's copy.
func (j *Job) FirstRankOn(node torus.NodeID) int {
	return j.nodeRanks[node][0]
}

// CollectiveModel prices the metadata collectives. A price depends only
// on the participant count n and the payload: a binomial tree over n
// ranks takes treeDepth(n) rounds, each priced by perRound.
type CollectiveModel struct {
	p       netsim.Params
	avgHops float64
}

// NewCollectiveModel builds a model for a job under netsim parameters.
func NewCollectiveModel(j *Job, p netsim.Params) *CollectiveModel {
	// Half the torus diameter is a representative route length for a
	// tree round.
	diam := 0
	for d := 0; d < j.tor.Dims(); d++ {
		diam += j.tor.Extent(d) / 2
	}
	return &CollectiveModel{p: p, avgHops: float64(diam) / 2}
}

// perRound prices one tree round moving bytes over a representative
// route.
func (m *CollectiveModel) perRound(bytes int64) sim.Duration {
	return m.p.SenderOverhead + m.p.ReceiverOverhead +
		sim.Duration(m.avgHops*float64(m.p.HopLatency)) +
		sim.Duration(float64(bytes)/m.p.PerFlowBandwidth)
}

func treeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// AllreduceTime prices an allreduce of bytes payload over n ranks: a
// binomial reduce followed by a binomial broadcast.
func (m *CollectiveModel) AllreduceTime(n int, bytes int64) sim.Duration {
	return sim.Duration(2 * float64(treeDepth(n)) * float64(m.perRound(bytes)))
}

// BcastTime prices a binomial-tree broadcast of bytes payload over n
// ranks.
func (m *CollectiveModel) BcastTime(n int, bytes int64) sim.Duration {
	return sim.Duration(float64(treeDepth(n)) * float64(m.perRound(bytes)))
}

// BarrierTime prices a zero-byte allreduce over n ranks.
func (m *CollectiveModel) BarrierTime(n int) sim.Duration {
	return m.AllreduceTime(n, 0)
}

// AllgatherTime prices a recursive-doubling allgather over n ranks where
// every rank contributes bytesPerRank: round i moves 2^i * bytesPerRank.
func (m *CollectiveModel) AllgatherTime(n int, bytesPerRank int64) sim.Duration {
	var total sim.Duration
	chunk := bytesPerRank
	for i := 0; i < treeDepth(n); i++ {
		total += m.perRound(chunk)
		chunk *= 2
	}
	return total
}
