// Benchmark harness: one testing.B target per data figure of the paper
// (Figs. 5-11) plus one per ablation from DESIGN.md. Each benchmark runs
// the corresponding experiment in quick mode (trimmed sweeps) and reports
// the figure's headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. The bgqbench command
// runs the same experiments at full fidelity; EXPERIMENTS.md records the
// full-sweep numbers against the paper's.
package main

import (
	"testing"

	"bgqflow/internal/experiments"
	"bgqflow/internal/routing"
)

func quickOpts() experiments.Options {
	return experiments.Options{Quick: true}
}

// BenchmarkFig5PointToPoint regenerates Fig. 5: point-to-point PUT
// throughput with and without 4 proxies on the 128-node 2x2x4x4x2
// partition. Reported metrics: large-message throughput of both curves
// and the proxy gain (paper: ~2x, crossover 256KB).
func BenchmarkFig5PointToPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Direct.Points) - 1
		b.ReportMetric(res.Direct.Points[last].GBps, "direct-GB/s")
		b.ReportMetric(res.Proxied.Points[last].GBps, "proxied-GB/s")
		b.ReportMetric(res.Proxied.Points[last].GBps/res.Direct.Points[last].GBps, "gain-x")
	}
}

// BenchmarkFig6GroupToGroup regenerates Fig. 6: transfers between two
// 256-node groups on the 2K-node 4x4x4x16x2 partition with 3 proxy
// groups (paper: ~1.5x, proxied plateau ~2.4 GB/s).
func BenchmarkFig6GroupToGroup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Direct.Points) - 1
		b.ReportMetric(res.Proxied.Points[last].GBps, "proxied-GB/s")
		b.ReportMetric(res.Proxied.Points[last].GBps/res.Direct.Points[last].GBps, "gain-x")
	}
}

// BenchmarkFig7ProxyCount regenerates Fig. 7: throughput versus the
// number of proxy groups for 2x32-node groups on 4x4x4x4x2 (paper: 2
// groups no gain, 3 -> 1.5x, 4 -> 2x, 5 degrades).
func BenchmarkFig7ProxyCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Curves[0].Points) - 1
		direct := res.Curves[0].Points[last].GBps
		for ci, c := range res.Curves[1:] {
			b.ReportMetric(c.Points[last].GBps/direct, []string{"g2-x", "g3-x", "g4-x", "g5-x"}[ci])
		}
	}
}

// BenchmarkFig8UniformHistogram regenerates Fig. 8: the Pattern 1
// (uniform) per-rank size histogram over 1,024 ranks.
func BenchmarkFig8UniformHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.Fig8(int64(i + 1))
		if h.TotalCount() != 1024 {
			b.Fatal("histogram lost samples")
		}
	}
}

// BenchmarkFig9ParetoHistogram regenerates Fig. 9: the Pattern 2
// (Pareto) per-rank size histogram over 1,024 ranks.
func BenchmarkFig9ParetoHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := experiments.Fig9(int64(i + 1))
		if h.TotalCount() != 1024 {
			b.Fatal("histogram lost samples")
		}
	}
}

// BenchmarkFig10Aggregation regenerates Fig. 10 (quick scales):
// aggregation throughput to the I/O nodes under Patterns 1 and 2,
// topology-aware dynamic aggregation versus default MPI collective I/O
// (paper: 2x growing to 3x for Pattern 1; 1.5x to 2x for Pattern 2).
func BenchmarkFig10Aggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.OursP1.Points) - 1
		b.ReportMetric(res.OursP1.Points[last].GBps/res.DefaultP1.Points[last].GBps, "p1-gain-x")
		b.ReportMetric(res.OursP2.Points[last].GBps/res.DefaultP2.Points[last].GBps, "p2-gain-x")
	}
}

// BenchmarkFig11HACCIO regenerates Fig. 11 (quick scale): HACC I/O write
// throughput, customized aggregator selection versus default collective
// I/O (paper: up to 50% improvement).
func BenchmarkFig11HACCIO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Ours.Points) - 1
		b.ReportMetric(res.Ours.Points[last].GBps/res.Default.Points[last].GBps, "gain-x")
	}
}

// BenchmarkAblationThreshold checks the Eq. 5 cost model: gain over
// direct per proxy count (k=2 must not win; k=4 ~2x for large messages).
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationThreshold(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Curves[0].Points) - 1
		b.ReportMetric(res.Curves[0].Points[last].GBps, "k2-gain-x")
		b.ReportMetric(res.Curves[2].Points[last].GBps, "k4-gain-x")
	}
}

// BenchmarkAblationPlacement compares link-disjoint proxy placement
// against naive random intermediates.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationPlacement(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DisjointGBps/res.NaiveGBps, "disjoint-vs-naive-x")
	}
}

// BenchmarkAblationAggCount compares the dynamic data-size-driven
// aggregator count against fixed per-pset counts.
func BenchmarkAblationAggCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationAggCount(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DynamicGBps, "dynamic-GB/s")
	}
}

// BenchmarkExtStorage runs the E1 extension: aggregation through the
// GPFS-like storage tier versus the paper's /dev/null sink.
func BenchmarkExtStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtStorage(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].OursGBps/res.Rows[0].DefaultGBps, "devnull-gain-x")
		b.ReportMetric(res.Rows[2].OursGBps/res.Rows[2].DefaultGBps, "scarce-gain-x")
	}
}

// BenchmarkExtMapping runs the E2 extension: rank-mapping sensitivity of
// the HACC burst.
func BenchmarkExtMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtMapping(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Mapping == "ABCDET" {
				b.ReportMetric(row.OursGBps/row.DefGBps, "block-gain-x")
			}
		}
	}
}

// BenchmarkExtPipeline runs the E3 extension: the paper's future-work
// pipelined store-and-forward making k=2 profitable.
func BenchmarkExtPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtPipeline(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Direct.Points) - 1
		b.ReportMetric(res.PipedK2.Points[last].GBps/res.Direct.Points[last].GBps, "pipedk2-gain-x")
	}
}

// BenchmarkExtValidation runs the E4 extension: flow-vs-packet model
// agreement.
func BenchmarkExtValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtValidation(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, row := range res.Rows {
			if row.DiffPct > worst {
				worst = row.DiffPct
			}
		}
		b.ReportMetric(worst, "worst-diff-%")
	}
}

// BenchmarkAblationZones measures routing-zone path diversity for
// concurrent same-pair messages.
func BenchmarkAblationZones(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationZones(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		for _, z := range res.PerZone {
			if z.Zone == routing.ZoneUnrestricted {
				b.ReportMetric(z.GBps, "zone1-GB/s")
			}
		}
	}
}

// BenchmarkExtInsitu runs the E5 extension: the Fig. 10 comparison on
// bursts produced by real in-situ threshold analysis.
func BenchmarkExtInsitu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtInsitu(quickOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Rows) - 1
		b.ReportMetric(res.Rows[last].OursGBps/res.Rows[last].DefaultGBps, "gain-x")
	}
}
