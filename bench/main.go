// Command bench is the repository's benchmark. It runs one seeded
// workload in a single process - the plan daemons on in-process Unix
// sockets, the load generator, the simulator - checks that every
// served plan and simulation result is correct, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit
// status is 0 only when every check passed.
//
// Usage (from the repository root; bench/bench.sh builds and runs it):
//
//	bench --workload serve-hot|serve-cold|serve-faults|sim-mira
//	      --seed N --seconds S --trace 0|1
//	      [--trace-out trace.json] [--json runs.jsonl]
//	bench --compare a.jsonl b.jsonl
//
// --trace 0 reports the end-to-end metrics BENCHMARK.json lists; --trace
// 1 reports the per-layer metrics and writes a Perfetto trace. --json
// appends the run's record to a JSON Lines file; --compare applies
// BENCHMARK.json's bounds to two such files. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runBudget is the longest a run may take, --seconds included.
const runBudget = 170 * time.Second

// record is one run as --json archives it.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	ErrorRatio float64 `json:"error_ratio"`
	// WallS is the run's wall time, set-up and verification included.
	WallS  float64 `json:"wall_s"`
	Result result  `json:"result"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-hot, serve-cold, serve-faults or sim-mira")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "where -trace 1 writes its Perfetto trace (default .bench_build/trace-<workload>-<seed>.json)")
	jsonOut := fs.String("json", "", "append this run's record to a JSON Lines file")
	compare := fs.Bool("compare", false, "compare two JSON Lines run sets: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two run-set files")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (serve-hot, serve-cold, serve-faults, sim-mira), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	// A run that overruns its budget exits instead of hanging its caller.
	time.AfterFunc(runBudget, func() {
		fmt.Fprintf(stderr, "bench: run exceeded %v\n", runBudget)
		os.Exit(2)
	})
	r := newRun(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullScale)
	res, err := execute(context.Background(), r, spec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if r.traced {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		}
		if err := writeTrace(r, path); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stderr, "trace written to %s\n", path)
	}
	rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: r.traced,
		ErrorRatio: float64(res.Failed) / float64(res.Attempted), WallS: time.Since(start).Seconds(), Result: res}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, rec); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	report(stdout, stderr, spec, r, rec)
	return status(res)
}

// status is the exit status of a run that produced a result: 0 when
// every check passed, 1 otherwise.
func status(res result) int {
	if res.Correct {
		return 0
	}
	return 1
}

// execute runs the workload and assembles its checked result.
func execute(ctx context.Context, r *run, spec *spec) (result, error) {
	if err := workloads[r.workload](ctx, r); err != nil {
		return result{}, err
	}
	if !r.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		r.set("peak_rss_mb", rss, "MB")
	}
	if err := spec.check(r.traced, r.metrics); err != nil {
		return result{}, err
	}
	return r.result()
}

// report prints every metric in BENCHMARK.json order, the failures to
// standard error, and the result object as the last line.
func report(stdout, stderr io.Writer, spec *spec, r *run, rec record) {
	list := spec.EndToEnd
	if r.traced {
		list = spec.PerLayer
	}
	for _, m := range list {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", m.Name, r.metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%-36s %16.6g ratio (%d of %d failed)\n", "error_ratio", rec.ErrorRatio, rec.Result.Failed, rec.Result.Attempted)
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "failure:", e)
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintf(stdout, "%s\n", line)
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the traced run's spans as a Chrome/Perfetto trace.
func writeTrace(r *run, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
