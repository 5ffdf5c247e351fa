package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples.golden from the current code")

// TestExamplesGolden builds and runs every program under examples/, each
// in a fresh working directory, and pins its stdout plus a SHA-256 of
// every file it writes there (examples/failover writes its Perfetto
// trace). The examples drive the planners, the SPMD runtime and the
// collective prices end to end, so a refactor of any of them must leave
// all of it byte-identical; regenerate with -update only for a
// deliberate change of results.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	var got bytes.Buffer
	for _, m := range mains {
		pkg := filepath.ToSlash(filepath.Dir(m))
		bin := buildTool(t, pkg)
		wd := t.TempDir()
		cmd := exec.Command(bin)
		cmd.Dir = wd
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", pkg, err, stderr.Bytes())
		}
		fmt.Fprintf(&got, "== %s\n%s", pkg, stdout.Bytes())
		written, err := os.ReadDir(wd)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range written {
			data, err := os.ReadFile(filepath.Join(wd, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "file %s sha256 %x\n", f.Name(), sha256.Sum256(data))
		}
		got.WriteByte('\n')
	}
	const golden = "testdata/examples.golden"
	if *updateExamples {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("example output differs from %s\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
