package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readSet loads a JSON Lines file of run records (--json output).
func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return out, nil
}

// values collects one end-to-end metric over a set's untraced, correct
// runs of one workload.
func values(set []record, workload, name string) []float64 {
	var out []float64
	for _, rec := range set {
		if rec.Workload != workload || rec.Trace || !rec.Result.Correct {
			continue
		}
		if m, ok := rec.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict compares set b against set a for one metric. change is b's
// median relative to a's, signed so that positive is worse. A spread
// (quartile distance over median, the wider of the two sets) above the
// bound leaves the comparison unresolved, unless every run of b reads
// better than every run of a; otherwise b is worse when its median is
// worse by more than the bound.
func verdict(a, b []float64, m specMetric) (change, spread float64, v string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	if m.Better == "higher" {
		change = -change
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && y <= x) || (m.Better != "higher" && y >= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return change, spread, "ok"
	case spread > m.Bound:
		return change, spread, "unresolved"
	case change > m.Bound:
		return change, spread, "worse"
	}
	return change, spread, "ok"
}

// runCompare prints one verdict per (end-to-end metric, workload) pair
// for run set b against run set a, and exits 1 if any is worse.
func runCompare(spec *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%-13s %-18s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "spread", "bound", "verdict")
	worse := false
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Fprintf(stdout, "%-13s %-18s %d and %d runs: unresolved\n", w.Name, m.Name, len(xa), len(xb))
				continue
			}
			change, spread, v := verdict(xa, xb, m)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-13s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, median(xa), median(xb), 100*change, 100*spread, 100*m.Bound, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}
