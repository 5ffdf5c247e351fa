package cluster

import "testing"

// FuzzParseVector fuzzes the X-Bgq-Min-Vector decoder: it must never
// panic, an accepted vector must re-parse from its canonical String form
// to an equal vector with the same String form, and Dominates must be
// reflexive.
func FuzzParseVector(f *testing.F) {
	for _, s := range []string{
		"", "r0:1", "r0:3,r1:0,r2:7", "a:1,a:2", "b:2,a:1", ":1", "a:", "a:x",
		"a:18446744073709551615", "a:18446744073709551616", "a:1,,b:2", "a:-1", "a:1:2", "é:3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseVector(s)
		if err != nil {
			return
		}
		if !v.Dominates(v) {
			t.Fatalf("%q: vector %v does not dominate itself", s, v)
		}
		canon := v.String()
		back, err := ParseVector(canon)
		if err != nil {
			t.Fatalf("%q: canonical form %q does not re-parse: %v", s, canon, err)
		}
		if !back.Equal(v) || back.String() != canon {
			t.Fatalf("%q: round trip %v -> %q -> %v", s, v, canon, back)
		}
	})
}
