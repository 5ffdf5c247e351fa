package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

const eightMB = 8 << 20

func TestUniformRangeAndMean(t *testing.T) {
	data := Uniform(100000, eightMB, 1)
	var sum float64
	for _, d := range data {
		if d < 0 || d > eightMB {
			t.Fatalf("sample %d outside [0, 8MB]", d)
		}
		sum += float64(d)
	}
	mean := sum / float64(len(data))
	if math.Abs(mean-eightMB/2)/(eightMB/2) > 0.02 {
		t.Fatalf("uniform mean %.0f, want ~%d", mean, eightMB/2)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(1000, eightMB, 42)
	b := Uniform(1000, eightMB, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := Uniform(1000, eightMB, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestUniformTotalsHalfOfDense(t *testing.T) {
	data := Uniform(50000, eightMB, 7)
	f := FractionOfDense(data, eightMB)
	if f < 0.47 || f > 0.53 {
		t.Fatalf("Pattern 1 totals %.2f of dense, want ~0.5", f)
	}
}

func TestPattern2TotalsAboutTwentyPercent(t *testing.T) {
	data := Pattern2(50000, eightMB, 7)
	f := FractionOfDense(data, eightMB)
	if f < 0.12 || f > 0.30 {
		t.Fatalf("Pattern 2 totals %.2f of dense, want ~0.2", f)
	}
}

func TestPattern2Shape(t *testing.T) {
	data := Pattern2(100000, eightMB, 3)
	h := NewHistogram(data, 16, eightMB)
	// Heavy head: the first bucket dominates.
	if h.Counts[0] < 4*h.Counts[1] {
		t.Fatalf("Pareto head not heavy: bucket0=%d bucket1=%d", h.Counts[0], h.Counts[1])
	}
	// Long tail: some ranks at or near max.
	tail := h.Counts[len(h.Counts)-1]
	if tail == 0 {
		t.Fatal("Pareto tail empty: no ranks near 8MB")
	}
	// Monotone-ish decline through the middle buckets.
	if h.Counts[2] > h.Counts[0] {
		t.Fatal("histogram not declining")
	}
}

func TestDense(t *testing.T) {
	data := Dense(100, 1<<20)
	if Total(data) != 100<<20 {
		t.Fatalf("dense total %d", Total(data))
	}
	if FractionOfDense(data, 1<<20) != 1 {
		t.Fatal("dense fraction should be 1")
	}
}

func TestHACCWindow(t *testing.T) {
	const n = 1000
	data := HACC(n, 100)
	writers := 0
	for r, d := range data {
		if d > 0 {
			writers++
			if r < 400 || r >= 500 {
				t.Fatalf("rank %d writes outside the [0.4N,0.5N) window", r)
			}
			if d != 100*HACCRecordBytes {
				t.Fatalf("rank %d writes %d bytes", r, d)
			}
		}
	}
	if writers != 100 {
		t.Fatalf("%d writers, want 100", writers)
	}
}

func TestHACCScaleMatchesPaper(t *testing.T) {
	// At 131,072 ranks the paper writes ~85 GB from the window.
	const n = 131072
	const particles = 180_000
	data := HACC(n, particles)
	total := Total(data)
	gb := float64(total) / 1e9
	if gb < 60 || gb > 110 {
		t.Fatalf("HACC burst at 131072 ranks = %.0f GB, want ~85 GB", gb)
	}
}

func TestCountZero(t *testing.T) {
	if got := CountZero([]int64{0, 1, 0, 5}); got != 2 {
		t.Fatalf("CountZero = %d", got)
	}
}

func TestHistogramMassConservation(t *testing.T) {
	data := Uniform(4321, eightMB, 9)
	h := NewHistogram(data, 32, eightMB)
	if h.TotalCount() != len(data) {
		t.Fatalf("histogram holds %d samples, want %d", h.TotalCount(), len(data))
	}
}

func TestHistogramUniformIsFlat(t *testing.T) {
	data := Uniform(160000, eightMB, 11)
	h := NewHistogram(data, 16, eightMB)
	expected := len(data) / len(h.Counts)
	for i, c := range h.Counts {
		if math.Abs(float64(c-expected)) > 0.12*float64(expected) {
			t.Fatalf("bucket %d has %d samples, expected ~%d (uniform should be flat)", i, c, expected)
		}
	}
}

func TestHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid histogram accepted")
		}
	}()
	NewHistogram(nil, 0, eightMB)
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram([]int64{0, 1 << 20, 8 << 20}, 8, eightMB)
	if h.String() == "" {
		t.Fatal("empty rendering")
	}
}

// Property: every histogram bucket index is within range for arbitrary
// data, and mass is conserved.
func TestPropertyHistogram(t *testing.T) {
	f := func(raw []uint32, binsRaw uint8) bool {
		bins := int(binsRaw%30) + 1
		data := make([]int64, len(raw))
		for i, r := range raw {
			data[i] = int64(r)
		}
		h := NewHistogram(data, bins, eightMB)
		return h.TotalCount() == len(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPattern2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Pattern2(131072, eightMB, int64(i))
	}
}

func TestBurstRoundTripAndFit(t *testing.T) {
	b := Burst{Description: "test", Sizes: []int64{0, 5, 10}}
	var buf bytes.Buffer
	if err := WriteBurst(&buf, b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBurst(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Description != "test" || len(back.Sizes) != 3 {
		t.Fatalf("round trip %+v", back)
	}
	fitted := back.FitToRanks(7)
	want := []int64{0, 5, 10, 0, 5, 10, 0}
	for i := range want {
		if fitted[i] != want[i] {
			t.Fatalf("fitted %v", fitted)
		}
	}
	if got := back.FitToRanks(2); len(got) != 2 || got[1] != 5 {
		t.Fatalf("truncation %v", got)
	}
}

func TestReadBurstValidation(t *testing.T) {
	cases := []string{
		`{"sizes": []}`,
		`{"sizes": [1, -2]}`,
		`{"sizes": [1], "bogus": 1}`,
		`nope`,
	}
	for _, raw := range cases {
		if _, err := ReadBurst(bytes.NewBufferString(raw)); err == nil {
			t.Errorf("ReadBurst accepted %q", raw)
		}
	}
}
