package main

import (
	"os"
	"os/exec"
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

// TestExtractRevReadsCommittedTree pins the paired gate's baseline: the
// extracted tree is the named revision's, not the working tree's, and
// extraction leaves the repository (index, working tree) untouched.
func TestExtractRevReadsCommittedTree(t *testing.T) {
	repo := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-C", repo,
			"-c", "user.name=bench", "-c", "user.email=bench@example.invalid"}, args...)...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(repo, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("a.go", "package a // v1\n")
	git("add", "a.go")
	git("commit", "-q", "-m", "v1")
	write("a.go", "package a // v2, uncommitted\n")
	write("b.go", "package a // untracked\n")
	status := git("status", "--porcelain")

	dir, err := extractRev(repo, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if got, err := os.ReadFile(filepath.Join(dir, "a.go")); err != nil || string(got) != "package a // v1\n" {
		t.Errorf("extracted a.go = %q, %v; want the committed v1", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "b.go")); !os.IsNotExist(err) {
		t.Errorf("untracked b.go extracted (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".git")); !os.IsNotExist(err) {
		t.Errorf("extracted tree has a .git (stat err %v)", err)
	}
	if after := git("status", "--porcelain"); after != status {
		t.Errorf("repository status changed by extraction:\n%s\nwant\n%s", after, status)
	}
	if got, _ := os.ReadFile(filepath.Join(repo, "a.go")); string(got) != "package a // v2, uncommitted\n" {
		t.Errorf("working tree a.go = %q after extraction", got)
	}

	// An unknown revision fails and leaves no temp dir behind.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if dir, err := extractRev(repo, "no-such-rev"); err == nil {
		os.RemoveAll(dir)
		t.Error("unknown revision extracted")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("failed extraction left %d entries in TMPDIR", len(left))
	}
}
