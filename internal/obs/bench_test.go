package obs

import (
	"testing"
	"time"
)

// BenchmarkRegistryCounter measures the lookup an instrumented request
// makes for each metric it touches: parallel re-finds of an existing
// counter and an existing window counter.
func BenchmarkRegistryCounter(b *testing.B) {
	r := NewRegistry()
	r.Counter("serve/requests")
	r.WindowCounter("serve/window/requests", 30*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Counter("serve/requests")
			r.WindowCounter("serve/window/requests", 30*time.Second)
		}
	})
}
