package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: msgscope/internal/core
cpu: Example CPU @ 2.50GHz
BenchmarkStudyRun/serial-8   	       2	1000000000 ns/op	190000000 B/op	 1700000 allocs/op
BenchmarkStudyRun/parallel-8 	       2	 500000000 ns/op	191000000 B/op	 1710000 allocs/op
BenchmarkHourlySearch-8      	     100	  10000000 ns/op	  200000 B/op	    3000 allocs/op
BenchmarkStoreIngest/tweets-8	       2	 225000000 ns/op	       301.0 liveB/rec	      2250 ns/rec	54000000 B/op	  310000 allocs/op
PASS
ok  	msgscope/internal/core	5.000s
`

func TestParseBench(t *testing.T) {
	doc, err := parseBench(strings.NewReader(sampleOutput), false)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Package != "msgscope/internal/core" || doc.CPU != "Example CPU @ 2.50GHz" {
		t.Errorf("header fields: pkg=%q cpu=%q", doc.Package, doc.CPU)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkStudyRun/serial" || b.NsPerOp != 1e9 ||
		b.BytesPerOp != 190000000 || b.AllocsPerOp != 1700000 {
		t.Errorf("first benchmark parsed as %+v", b)
	}
	if got := doc.Derived["BenchmarkStudyRun_speedup"]; got != "2.00x" {
		t.Errorf("speedup = %q, want 2.00x", got)
	}
	// ReportMetric columns land in the metrics map, standard columns don't.
	ing := doc.Benchmarks[3]
	if ing.Name != "BenchmarkStoreIngest/tweets" || ing.CPUs != 0 {
		t.Fatalf("ingest benchmark parsed as %+v", ing)
	}
	if ing.Metrics["liveB/rec"] != 301.0 || ing.Metrics["ns/rec"] != 2250 {
		t.Errorf("custom metrics = %v", ing.Metrics)
	}
	if ing.BytesPerOp != 54000000 || ing.AllocsPerOp != 310000 {
		t.Errorf("standard columns after metrics = %+v", ing)
	}
}

const matrixOutput = `goos: linux
goarch: amd64
pkg: msgscope/internal/core
BenchmarkStudyRun/serial   	       2	1000000000 ns/op
BenchmarkStudyRun/parallel 	       2	 900000000 ns/op
BenchmarkStudyRun/serial-4 	       2	1000000000 ns/op
BenchmarkStudyRun/parallel-4	       2	 250000000 ns/op
PASS
`

func TestParseBenchMatrix(t *testing.T) {
	doc, err := parseBench(strings.NewReader(matrixOutput), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("got %d benchmarks, want 4", len(doc.Benchmarks))
	}
	// -cpu 1 lines carry no suffix (go test omits "-1"); -cpu 4 lines do.
	if b := doc.Benchmarks[0]; b.Name != "BenchmarkStudyRun/serial" || b.CPUs != 0 {
		t.Errorf("cpu-1 line parsed as %+v", b)
	}
	if b := doc.Benchmarks[2]; b.Name != "BenchmarkStudyRun/serial" || b.CPUs != 4 {
		t.Errorf("cpu-4 line parsed as %+v", b)
	}
	if got := doc.Derived["BenchmarkStudyRun_speedup"]; got != "1.11x" {
		t.Errorf("1-cpu speedup = %q, want 1.11x", got)
	}
	if got := doc.Derived["BenchmarkStudyRun_speedup[cpu=4]"]; got != "4.00x" {
		t.Errorf("4-cpu speedup = %q, want 4.00x", got)
	}
}

func TestBestOfKeepsFastestRun(t *testing.T) {
	// go test -count=3 repeats every benchmark; the recorded row must be
	// the fastest repetition, whole-row (its metrics come along with it).
	in := `BenchmarkLDAFit/alias/serial	 6	 180000000 ns/op	 60.0 tok/s
BenchmarkLDAFit/alias/serial	 6	 160000000 ns/op	 67.5 tok/s
BenchmarkLDAFit/alias/serial-2	 6	 175000000 ns/op	 61.7 tok/s
BenchmarkLDAFit/alias/serial	 6	 170000000 ns/op	 63.5 tok/s
PASS
`
	doc, err := parseBench(strings.NewReader(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (cpu=1 collapsed, cpu=2 kept)", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.CPUs != 0 || b.NsPerOp != 160000000 || b.Metrics["tok/s"] != 67.5 {
		t.Errorf("best cpu=1 row = %+v, want the 160ms/67.5tok/s repetition", b)
	}
	if b2 := doc.Benchmarks[1]; b2.CPUs != 2 || b2.NsPerOp != 175000000 {
		t.Errorf("cpu=2 row = %+v, want untouched 175ms", b2)
	}
}

func TestRegressionsGate(t *testing.T) {
	base := []benchmark{
		{Name: "BenchmarkStudyRun/serial", NsPerOp: 1e9, AllocsPerOp: 1_000_000},
		{Name: "BenchmarkHourlySearch", NsPerOp: 1e7, AllocsPerOp: 3000},
		{Name: "BenchmarkRemoved", NsPerOp: 5e6, AllocsPerOp: 10},
	}

	// Within tolerance (+10% ns, equal allocs): no findings.
	ok := []benchmark{
		{Name: "BenchmarkStudyRun/serial", NsPerOp: 1.1e9, AllocsPerOp: 1_000_000},
		{Name: "BenchmarkHourlySearch", NsPerOp: 0.9e7, AllocsPerOp: 3000},
		{Name: "BenchmarkAdded", NsPerOp: 1e6, AllocsPerOp: 1}, // not in baseline: ignored
	}
	if regs := regressions(base, ok, 0.20); len(regs) != 0 {
		t.Errorf("within-tolerance run flagged: %v", regs)
	}

	// Synthetic >20% regressions in both dimensions must be caught.
	bad := []benchmark{
		{Name: "BenchmarkStudyRun/serial", NsPerOp: 1.5e9, AllocsPerOp: 1_000_000},
		{Name: "BenchmarkHourlySearch", NsPerOp: 1e7, AllocsPerOp: 4000},
	}
	regs := regressions(base, bad, 0.20)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	joined := strings.Join(regs, "\n")
	if !strings.Contains(joined, "ns/op") || !strings.Contains(joined, "allocs/op") {
		t.Errorf("regression messages missing dimensions: %v", regs)
	}
}

func TestRegressionsGateCustomMetrics(t *testing.T) {
	base := []benchmark{
		{Name: "BenchmarkStoreIngest/tweets", NsPerOp: 1e8,
			Metrics: map[string]float64{"liveB/rec": 300, "ns/rec": 2200}},
		{Name: "BenchmarkStoreIngest/tweets", CPUs: 4, NsPerOp: 1e8,
			Metrics: map[string]float64{"liveB/rec": 300}},
	}

	// Within tolerance, and a metric only the fresh side has: no findings.
	ok := []benchmark{
		{Name: "BenchmarkStoreIngest/tweets", NsPerOp: 1e8,
			Metrics: map[string]float64{"liveB/rec": 330, "ns/rec": 2100, "new/rec": 9}},
	}
	if regs := regressions(base, ok, 0.20); len(regs) != 0 {
		t.Errorf("within-tolerance metrics flagged: %v", regs)
	}

	// +50% liveB/rec must be caught; the cpu=4 row is matched separately.
	bad := []benchmark{
		{Name: "BenchmarkStoreIngest/tweets", NsPerOp: 1e8,
			Metrics: map[string]float64{"liveB/rec": 450, "ns/rec": 2200}},
		{Name: "BenchmarkStoreIngest/tweets", CPUs: 4, NsPerOp: 1e8,
			Metrics: map[string]float64{"liveB/rec": 290}},
	}
	regs := regressions(base, bad, 0.20)
	if len(regs) != 1 || !strings.Contains(regs[0], "liveB/rec") {
		t.Fatalf("got %v, want one liveB/rec regression", regs)
	}
}

func TestRegressionsGateThroughputMetrics(t *testing.T) {
	base := []benchmark{
		{Name: "BenchmarkLDAFit/alias/serial", NsPerOp: 1e8,
			Metrics: map[string]float64{"tok/s": 70e6}},
	}

	// A "/s" metric is higher-is-better: growth is an improvement, not a
	// regression.
	faster := []benchmark{
		{Name: "BenchmarkLDAFit/alias/serial", NsPerOp: 1e8,
			Metrics: map[string]float64{"tok/s": 100e6}},
	}
	if regs := regressions(base, faster, 0.20); len(regs) != 0 {
		t.Errorf("throughput improvement flagged: %v", regs)
	}

	// A >20% throughput drop must be caught.
	slower := []benchmark{
		{Name: "BenchmarkLDAFit/alias/serial", NsPerOp: 1e8,
			Metrics: map[string]float64{"tok/s": 50e6}},
	}
	regs := regressions(base, slower, 0.20)
	if len(regs) != 1 || !strings.Contains(regs[0], "tok/s") {
		t.Fatalf("got %v, want one tok/s regression", regs)
	}
}

func TestResolveBaselinePicksNewest(t *testing.T) {
	here := host{CPU: "Example CPU", Cores: 2, CPUMatrix: []int{1, 2}}
	dir := t.TempDir()
	write := func(name string, h host) {
		doc := document{CPU: h.CPU, Cores: h.Cores, CPUMatrix: h.CPUMatrix}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_2.json", here)
	write("BENCH_10.json", here)
	// Newer, but from hosts that differ in one field each.
	write("BENCH_11.json", host{CPU: here.CPU, Cores: 1, CPUMatrix: here.CPUMatrix})
	write("BENCH_12.json", host{CPU: "Other CPU", Cores: 2, CPUMatrix: here.CPUMatrix})
	write("BENCH_13.json", host{CPU: here.CPU, Cores: 2, CPUMatrix: []int{1}})
	write("BENCH_x.json", here)
	write("other.json", here)
	got, _, err := resolveBaseline(dir, here)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Errorf("resolveBaseline = %q, want BENCH_10.json", got)
	}

	// A direct file path is used as-is.
	file := filepath.Join(dir, "BENCH_12.json")
	if got, doc, err := resolveBaseline(file, here); err != nil || got != file || doc.CPU != "Other CPU" {
		t.Errorf("resolveBaseline(file) = %q, %q, %v", got, doc.CPU, err)
	}

	// No baseline from this host: fail, and say how to record one.
	_, _, err = resolveBaseline(dir, host{CPU: "New CPU", Cores: 2, CPUMatrix: []int{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "make bench-json") {
		t.Errorf("no matching baseline: err = %v, want one naming make bench-json", err)
	}
	if _, _, err := resolveBaseline(t.TempDir(), here); err == nil {
		t.Error("empty directory accepted as baseline source")
	}
}
