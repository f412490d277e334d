package prof

// Process-level memory metrics for the spill benchmarks: the Go heap
// counters cannot see mmap-backed segments or page-cache residency, so the
// memory-budget acceptance gate reads the kernel's view of the process
// (peak RSS) next to the runtime's view of the live heap. Linux-only by
// nature; other platforms report zero and the benchmarks skip the gate.

import (
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
)

// PeakRSSBytes reports the process's peak resident set size (VmHWM from
// /proc/self/status), or 0 where unavailable.
func PeakRSSBytes() int64 {
	return procStatusKB("VmHWM:") * 1024
}

// RSSBytes reports the process's current resident set size (VmRSS), or 0
// where unavailable.
func RSSBytes() int64 {
	return procStatusKB("VmRSS:") * 1024
}

func procStatusKB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	i := bytes.Index(data, []byte(field))
	if i < 0 {
		return 0
	}
	line := data[i+len(field):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	line = bytes.TrimSuffix(bytes.TrimSpace(line), []byte(" kB"))
	n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// HeapLiveBytes reports the bytes occupied by live heap objects
// (/memory/classes/heap/objects from runtime/metrics) — the number the
// spill budget actually constrains, next to the RSS the kernel sees.
func HeapLiveBytes() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}
