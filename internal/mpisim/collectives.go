package mpisim

import (
	"fmt"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// BuildBcastFlows is the simulated reference for CollectiveModel's
// prices: it builds a metadata broadcast as an actual flow DAG on the
// network simulator, so the analytic price can be checked against the
// traffic it stands for. The planners use the price, which is cheap; the
// paper asserts these costs are negligible.
//
// It submits a binomial-tree broadcast of bytes among the given world
// ranks of j from ranks[root]: in round i, every participant with index
// < 2^i (counted from the root) that already holds the data sends to
// index + 2^i. It returns the flows that deliver the payload to the
// leaves; the broadcast is complete when all of them are.
func BuildBcastFlows(e *netsim.Engine, j *Job, ranks []int, root int, bytes int64) ([]netsim.FlowID, error) {
	n := len(ranks)
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpisim: bcast root %d outside %d participants", root, n)
	}
	// Rotate so the root is index 0.
	node := func(i int) torus.NodeID {
		return j.NodeOf(ranks[(i+root)%n])
	}
	// deliver[i] is the flow that hands participant i the payload (-1 =
	// has it).
	deliver := make([]netsim.FlowID, n)
	for i := range deliver {
		deliver[i] = -1
	}
	var finals []netsim.FlowID
	for span := 1; span < n; span *= 2 {
		for src := 0; src < span && src+span < n; src++ {
			dst := src + span
			var deps []netsim.FlowID
			if deliver[src] >= 0 {
				deps = []netsim.FlowID{deliver[src]}
			}
			id := e.Submit(netsim.FlowSpec{
				Src: node(src), Dst: node(dst), Bytes: bytes,
				DependsOn: deps,
				Label:     fmt.Sprintf("bcast/%d->%d", src, dst),
			})
			deliver[dst] = id
			finals = append(finals, id)
		}
	}
	return finals, nil
}
