package prof

import (
	"runtime"
	"testing"
)

func TestRSSMetrics(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("RSS metrics read /proc; linux only")
	}
	rss := RSSBytes()
	peak := PeakRSSBytes()
	if rss <= 0 {
		t.Fatalf("RSSBytes() = %d, want > 0", rss)
	}
	if peak < rss {
		t.Fatalf("PeakRSSBytes() = %d below current RSS %d", peak, rss)
	}
	if live := HeapLiveBytes(); live <= 0 {
		t.Fatalf("HeapLiveBytes() = %d, want > 0", live)
	}
}
