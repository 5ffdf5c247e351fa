// Package topo abstracts the machine fabric behind the simulators: which
// nodes exist, which directed links connect them, and how a message
// routes deterministically between two endpoints. The BG/Q 5D torus is
// one instance; dragonfly and fat-tree fabrics are others. Every planner,
// oracle, fault campaign, and the bgqd daemon consume this interface so a
// new fabric is one constructor away (DESIGN.md §16). Endpoint costs are
// not a fabric property: the engines read them from their own machine
// constants.
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"bgqflow/internal/torus"
)

// Topology describes a fabric: a dense node ID space [0, NumNodes), a
// dense directed-link ID space [0, NumLinks), and a deterministic route
// oracle. Routes are pure functions of (src, dst) — like the BG/Q's
// deterministic zone-2 routing they do NOT reroute around failures; a
// disabled link aborts the flows crossing it (the §8/§9 fault model),
// which is exactly what makes proxy placement and replanning meaningful.
type Topology interface {
	// Kind names the topology family ("torus", "dragonfly", "fattree").
	Kind() string
	// Spec renders the canonical parse spec, e.g. "torus:2x2x4". Two
	// topologies with equal Spec are interchangeable.
	Spec() string
	// NumNodes reports the number of addressable endpoints.
	NumNodes() int
	// NumLinks reports the number of base-fabric directed links. IDs
	// [0, NumLinks) are dense; engines may append extra links above.
	NumLinks() int
	// LinkCapacity returns the relative capacity multiplier of a base
	// link (1.0 = one rail at the fabric's base bandwidth; a multi-rail
	// link reports its rail count).
	LinkCapacity(id int) float64
	// Route returns the deterministic directed-link path from src to
	// dst, nil when src == dst. The slice is freshly allocated (or
	// immutable); callers may retain it.
	Route(src, dst torus.NodeID) []int
	// NodeLinks returns every base link that dies with node n — all
	// links whose traffic necessarily traverses n's network interface —
	// in a deterministic order. Used by the fault model's node-failure
	// semantics.
	NodeLinks(n torus.NodeID) []int
	// LinkString renders a base link for diagnostics.
	LinkString(id int) string
}

// Parse builds a topology from a spec string:
//
//	torus:2x2x4x4x2     — torus with the given extents (the BG/Q default)
//	dragonfly:GxA       — G groups of A routers, single-rail global links
//	dragonfly:GxAxR     — as above with R rails per global link
//	fattree:LxS         — L leaves fully connected to S spines
//	fattree:LxSxR       — as above with R rails per leaf-spine cable
func Parse(spec string) (Topology, error) {
	kind, dims, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "torus":
		t, err := torus.New(dims)
		if err != nil {
			return nil, fmt.Errorf("topo: spec %q: %v", spec, err)
		}
		return NewTorus(t), nil
	case "dragonfly":
		rails := 1
		switch len(dims) {
		case 3:
			rails = dims[2]
			fallthrough
		case 2:
			return NewDragonfly(dims[0], dims[1], rails)
		default:
			return nil, fmt.Errorf("topo: spec %q: dragonfly wants GxA or GxAxR", spec)
		}
	case "fattree":
		rails := 1
		switch len(dims) {
		case 3:
			rails = dims[2]
			fallthrough
		case 2:
			return NewFatTree(dims[0], dims[1], rails)
		default:
			return nil, fmt.Errorf("topo: spec %q: fattree wants LxS or LxSxR", spec)
		}
	default:
		return nil, fmt.Errorf("topo: unknown topology kind %q (want torus, dragonfly, or fattree)", kind)
	}
}

// ParseSpec splits a Parse spec into its kind and extents without
// building the fabric.
func ParseSpec(spec string) (kind string, dims []int, err error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return "", nil, fmt.Errorf("topo: spec %q: want kind:dims, e.g. torus:2x2x4", spec)
	}
	if dims, err = parseDims(rest); err != nil {
		return "", nil, fmt.Errorf("topo: spec %q: %v", spec, err)
	}
	return kind, dims, nil
}

// LinkCount returns the number of directed base links of the fabric of
// the given kind and extents — the NumLinks of the topology Parse builds
// — without building it. The arithmetic saturates: a count above limit
// (at most 1<<31) is reported as limit+1, so no extents can overflow it.
// Callers use it to bound a fabric named by an untrusted request before
// allocating per-link state over it. An unknown kind counts 0.
func LinkCount(kind string, dims []int, limit int) int {
	mul := func(a, b int) int {
		if a > limit || b > limit || a*b > limit {
			return limit + 1
		}
		return a * b
	}
	switch {
	case kind == "torus":
		n := 2 * len(dims)
		for _, d := range dims {
			n = mul(n, d)
		}
		return n
	case kind == "dragonfly" && len(dims) >= 2:
		g, a := dims[0], dims[1]
		return min(mul(mul(g, a), a-1)+mul(g, g-1), limit+1)
	case kind == "fattree" && len(dims) >= 2:
		return mul(2, mul(dims[0], dims[1]))
	}
	return 0
}

// parseDims parses "2x2x4" into [2 2 4].
func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad extent %q", p)
		}
		dims = append(dims, v)
	}
	return dims, nil
}
