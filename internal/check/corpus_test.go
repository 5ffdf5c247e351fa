package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateCorpora = flag.Bool("update", false, "rewrite testdata/corpora.golden from the current generators")

// TestCorporaDigests pins the scenarios the differential suites run:
// the JSON of every generated scenario, hashed per generator over the
// suites' seed ranges. The Deterministic tests check one process only;
// this catches a change that silently re-seeds a suite (a new RNG draw,
// a reordered field, a changed default). Regenerate with -update only
// for a deliberate change of the corpora, after checking the new
// scenarios against the old ones.
func TestCorporaDigests(t *testing.T) {
	corpora := []struct {
		name  string
		seeds int64
		gen   func(int64) Scenario
	}{
		{"Generate", 200, Generate},
		{"GenerateSparse", 40, GenerateSparse},
		{"GenerateTopo", 200, GenerateTopo},
	}
	var got bytes.Buffer
	for _, c := range corpora {
		h := sha256.New()
		for seed := int64(0); seed < c.seeds; seed++ {
			b, err := json.Marshal(c.gen(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			h.Write(append(b, '\n'))
		}
		fmt.Fprintf(&got, "%s seeds 0-%d sha256 %x\n", c.name, c.seeds-1, h.Sum(nil))
	}
	const golden = "testdata/corpora.golden"
	if *updateCorpora {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("generated corpora changed:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
