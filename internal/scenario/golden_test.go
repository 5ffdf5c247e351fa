package scenario

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/examples.golden from the current code")

// TestExampleScenariosGolden pins bgqsim's output on every file in
// examples/scenarios: the Result fields at full precision and a SHA-256
// of the trace JSON bgqsim -trace writes. A refactor of the plan path
// must leave all of it byte-identical; regenerate with -update only for
// a deliberate change of results.
func TestExampleScenariosGolden(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := Load(fh)
		fh.Close()
		if err != nil {
			t.Fatalf("%s: load: %v", f, err)
		}
		cfg.CollectTrace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", f, err)
		}
		var tr bytes.Buffer
		if err := res.Trace.WriteJSON(&tr); err != nil {
			t.Fatalf("%s: trace: %v", f, err)
		}
		full := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		fmt.Fprintf(&got, "file %s\nmode %s\ngbps %s\nmakespanMS %s\nuplinkImbalance %s\n",
			filepath.Base(f), res.Mode, full(res.GBps), full(res.MakespanMS), full(res.UplinkImbalance))
		for _, n := range res.Notes {
			fmt.Fprintf(&got, "note %s\n", n)
		}
		fmt.Fprintf(&got, "trace %d flows sha256 %x\n\n", len(res.Trace.Flows), sha256.Sum256(tr.Bytes()))
	}
	const golden = "testdata/examples.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("example scenario output differs from %s\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
