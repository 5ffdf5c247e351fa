// Package mpisim provides the MPI-shaped substrate the paper's algorithms
// run on: the mapping from MPI ranks to torus nodes, communicators and
// subcommunicators, and analytic timing models for the metadata
// collectives the algorithms use (Allreduce of the total data size,
// Bcast of the aggregator list, Allgather of coordinates).
//
// Ranks are mapped to nodes in block order (the BG/Q "ABCDET" default):
// ranks r*K .. r*K+K-1 live on node r, where K is the ranks-per-node
// count, and nodes are ordered row-major over the torus coordinates.
//
// The collective timing models are deliberately simple tree/ring models
// built from the netsim endpoint parameters; the paper asserts (and our
// experiments confirm) that these metadata costs are negligible next to
// the data movement itself, so fidelity beyond the right order of
// magnitude is not required.
package mpisim

import (
	"fmt"
	"math/bits"
	"sort"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// Job is a parallel job: a partition plus a rank layout.
type Job struct {
	tor          *torus.Torus
	ranksPerNode int
	numRanks     int
	order        MapOrder
	rankNode     []torus.NodeID
	nodeRanks    [][]int
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

// RanksPerNode returns the rank density.
func (j *Job) RanksPerNode() int { return j.ranksPerNode }

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

// World returns the communicator containing every rank.
func (j *Job) World() *Comm {
	ranks := make([]int, j.numRanks)
	for i := range ranks {
		ranks[i] = i
	}
	return &Comm{job: j, ranks: ranks}
}

// Comm is a communicator: an ordered set of world ranks. Index within
// the slice is the communicator-local rank, so ranks[0] is "rank 0 of the
// subcomm" — the process Algorithm 2 elects as a block's aggregator.
type Comm struct {
	job   *Job
	ranks []int
}

// NewComm builds a communicator from explicit world ranks (MPI_Comm_create).
// Ranks must be valid and strictly increasing.
func NewComm(j *Job, ranks []int) (*Comm, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("mpisim: empty communicator")
	}
	for i, r := range ranks {
		if r < 0 || r >= j.numRanks {
			return nil, fmt.Errorf("mpisim: rank %d outside job", r)
		}
		if i > 0 && ranks[i-1] >= r {
			return nil, fmt.Errorf("mpisim: ranks must be strictly increasing")
		}
	}
	return &Comm{job: j, ranks: append([]int(nil), ranks...)}, nil
}

// Job returns the communicator's job.
func (c *Comm) Job() *Job { return c.job }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank translates a communicator-local rank to a world rank.
func (c *Comm) WorldRank(local int) int { return c.ranks[local] }

// Leader returns the world rank of communicator-local rank 0.
func (c *Comm) Leader() int { return c.ranks[0] }

// LocalRank translates a world rank to its communicator-local rank, or -1
// if the rank is not a member.
func (c *Comm) LocalRank(world int) int {
	i := sort.SearchInts(c.ranks, world)
	if i < len(c.ranks) && c.ranks[i] == world {
		return i
	}
	return -1
}

// SubcommForNodes builds the communicator of all ranks hosted by the given
// nodes (MPI_Comm_create over a node block); this is how Algorithm 2 forms
// a subcomm per 5-D block and elects its rank 0 as the aggregator.
func (c *Comm) SubcommForNodes(nodes []torus.NodeID) (*Comm, error) {
	inSet := make(map[torus.NodeID]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	var ranks []int
	for _, r := range c.ranks {
		if inSet[c.job.NodeOf(r)] {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("mpisim: no member ranks on the given %d nodes", len(nodes))
	}
	return &Comm{job: c.job, ranks: ranks}, nil
}

// RangeComm builds the communicator of world ranks [lo, hi).
func (c *Comm) RangeComm(lo, hi int) (*Comm, error) {
	var ranks []int
	for _, r := range c.ranks {
		if r >= lo && r < hi {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("mpisim: empty range [%d,%d)", lo, hi)
	}
	return &Comm{job: c.job, ranks: ranks}, nil
}

// CollectiveModel prices the metadata collectives.
type CollectiveModel struct {
	p        netsim.Params
	avgHops  float64
	perRound func(bytes int64) sim.Duration
}

// NewCollectiveModel builds a model for a job under netsim parameters.
func NewCollectiveModel(j *Job, p netsim.Params) *CollectiveModel {
	// Half the torus diameter is a representative route length for a
	// tree round.
	diam := 0
	for d := 0; d < j.tor.Dims(); d++ {
		diam += j.tor.Extent(d) / 2
	}
	m := &CollectiveModel{p: p, avgHops: float64(diam) / 2}
	m.perRound = func(bytes int64) sim.Duration {
		return m.p.SenderOverhead + m.p.ReceiverOverhead +
			sim.Duration(m.avgHops*float64(m.p.HopLatency)) +
			sim.Duration(float64(bytes)/m.p.PerFlowBandwidth)
	}
	return m
}

func treeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// AllreduceTime prices an allreduce of bytes payload over comm: a binomial
// reduce followed by a binomial broadcast.
func (m *CollectiveModel) AllreduceTime(c *Comm, bytes int64) sim.Duration {
	return sim.Duration(2 * float64(treeDepth(c.Size())) * float64(m.perRound(bytes)))
}

// BcastTime prices a binomial-tree broadcast of bytes payload.
func (m *CollectiveModel) BcastTime(c *Comm, bytes int64) sim.Duration {
	return sim.Duration(float64(treeDepth(c.Size())) * float64(m.perRound(bytes)))
}

// BarrierTime prices a zero-byte allreduce.
func (m *CollectiveModel) BarrierTime(c *Comm) sim.Duration {
	return m.AllreduceTime(c, 0)
}

// AllgatherTime prices a recursive-doubling allgather where every rank
// contributes bytesPerRank: round i moves 2^i * bytesPerRank.
func (m *CollectiveModel) AllgatherTime(c *Comm, bytesPerRank int64) sim.Duration {
	var total sim.Duration
	chunk := bytesPerRank
	for i := 0; i < treeDepth(c.Size()); i++ {
		total += m.perRound(chunk)
		chunk *= 2
	}
	return total
}
