// Command benchjson converts `go test -bench` text output (read on stdin)
// into a JSON document, so benchmark runs can be checked in and diffed.
// When both BenchmarkStudyRun/serial and /parallel are present it also
// records their wall-clock ratio — the pipeline's parallel speedup.
//
// Custom benchmark metrics emitted via b.ReportMetric (ns/rec, liveB/rec,
// …) are parsed into each benchmark's "metrics" map alongside the standard
// ns/op, B/op and allocs/op columns.
//
// With -cpus, benchjson runs the suite itself instead of reading stdin:
// it execs `go test -run '^$' -bench <pattern> -benchmem -cpu <list>` over
// the named packages, so one invocation produces a GOMAXPROCS matrix. Each
// result records its CPU count in the "cpus" field; -scale forwards a
// workload multiplier to the child via MSGSCOPE_BENCH_SCALE. With -count N
// each benchmark runs N times (one go test process per repetition) and
// the fastest row per configuration is recorded — the min over
// repetitions is the noise floor on a shared host.
//
// With -compare-rev REV (a git revision), the suite is a paired A/B
// regression gate, the one `make ci` runs: REV's tree is extracted with
// `git archive REV | tar -x` into a temp dir (the repository's .git is
// only read), and the two trees' suites run alternately, one repetition
// each, -count times, so host drift lands on both sides alike. The
// fastest row per side is kept, and the command exits non-zero when any
// benchmark of the working tree regressed against REV's by more than the
// tolerance in ns/op, allocs/op or a shared custom metric. The JSON
// document written is the working tree's.
//
// Usage:
//
//	go test ./internal/core -run '^$' -bench 'StudyRun' -benchmem | benchjson -o BENCH.json
//	benchjson -cpus 1,4,8 -bench 'StudyRun|StoreIngest' -o BENCH.json ./internal/core ./internal/store
//	benchjson -cpus 1,2 -bench 'StudyRun|StoreIngest' -count 3 -compare-rev HEAD ./internal/core ./internal/store
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"msgscope/internal/prof"
)

// benchmark is one parsed result line. CPUs is the GOMAXPROCS the line ran
// under — recorded only in -cpus matrix mode, where the same benchmark
// appears once per CPU count; 0 means single-configuration mode, where the
// -N name suffix is trimmed instead.
type benchmark struct {
	Name        string             `json:"name"`
	CPUs        int                `json:"cpus,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type document struct {
	Tool       string            `json:"tool"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPU        string            `json:"cpu,omitempty"`
	Cores      int               `json:"cores"`
	CPUMatrix  []int             `json:"cpu_matrix,omitempty"`
	BenchScale float64           `json:"bench_scale,omitempty"`
	Package    string            `json:"package,omitempty"`
	Benchmarks []benchmark       `json:"benchmarks"`
	Derived    map[string]string `json:"derived,omitempty"`
}

// benchLine matches e.g.
// "BenchmarkStudyRun/serial-8   2   1202147830 ns/op   1932900 B/op   17860 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compareRev := flag.String("compare-rev", "", "git revision to benchmark alternately against the working tree (only with -cpus); exits non-zero on regression")
	tol := flag.Float64("tol", 0.20, "allowed fractional regression in ns/op, allocs/op and custom metrics before -compare-rev fails")
	cpus := flag.String("cpus", "", "comma-separated GOMAXPROCS list (e.g. 1,4,8): run the benchmarks under each count instead of reading stdin; positional args name the packages")
	benchPat := flag.String("bench", "", "benchmark pattern for -cpus mode (required with -cpus)")
	scale := flag.Float64("scale", 0, "workload multiplier forwarded to the child as MSGSCOPE_BENCH_SCALE (only with -cpus)")
	benchtime := flag.String("benchtime", "", "passed through as go test -benchtime (only with -cpus)")
	count := flag.Int("count", 1, "repetitions per benchmark and tree (only with -cpus); the fastest run per configuration is recorded")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of this conversion to file")
	memprofile := flag.String("memprofile", "", "write a heap profile of this conversion to file")
	flag.Parse()

	files, err := prof.StartFiles(prof.FileConfig{CPUProfile: *cpuprofile, MemProfile: *memprofile})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	defer files.Stop()

	var doc, base document
	switch {
	case *compareRev != "" && *cpus == "":
		err = fmt.Errorf("-compare-rev requires -cpus")
	case *compareRev != "":
		var dir string
		if dir, err = extractRev(".", *compareRev); err == nil {
			var docs []document
			docs, err = runMatrix([]string{".", dir}, *cpus, *benchPat, *benchtime, *scale, *count, flag.Args())
			if err == nil {
				doc, base = docs[0], docs[1]
			}
			os.RemoveAll(dir)
		}
	case *cpus != "":
		var docs []document
		if docs, err = runMatrix([]string{"."}, *cpus, *benchPat, *benchtime, *scale, *count, flag.Args()); err == nil {
			doc = docs[0]
		}
	default:
		doc, err = parseBench(os.Stdin, false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		files.Stop()
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *compareRev != "" {
		regs := regressions(base.Benchmarks, doc.Benchmarks, *tol)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: regressions vs %s (tolerance %.0f%%):\n", *compareRev, *tol*100)
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "  "+r)
			}
			files.Stop()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regressions vs %s (tolerance %.0f%%)\n", *compareRev, *tol*100)
	}
}

// extractRev writes the tree of git revision rev of the repository at repo
// into a fresh temp dir (`git archive rev | tar -x`) and returns the dir;
// the caller removes it. Only archive reads the repository, so its .git,
// index and working tree are left as they are.
func extractRev(repo, rev string) (string, error) {
	dir, err := os.MkdirTemp("", "benchjson-rev-")
	if err != nil {
		return "", err
	}
	archive := exec.Command("git", "-C", repo, "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	// One buffer per command: exec copies each one's stderr on its own
	// goroutine.
	var archiveErr, untarErr strings.Builder
	archive.Stderr, untar.Stderr = &archiveErr, &untarErr
	if untar.Stdin, err = archive.StdoutPipe(); err == nil {
		if err = untar.Start(); err == nil {
			err = archive.Run()
			if werr := untar.Wait(); err == nil {
				err = werr
			}
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", fmt.Errorf("extracting %s: %w: %s", rev, err,
			strings.TrimSpace(archiveErr.String()+untarErr.String()))
	}
	return dir, nil
}

// runMatrix execs the benchmark suite under each GOMAXPROCS in cpuList
// (via go test's native -cpu flag) in each of dirs, count times over, one
// repetition per process with the dirs taking turns, and parses each
// dir's combined output with CPU counts preserved into one document per
// dir. The children's stdout is mirrored to stderr so long runs show
// progress.
func runMatrix(dirs []string, cpuList, pattern, benchtime string, scale float64, count int, pkgs []string) ([]document, error) {
	if pattern == "" {
		return nil, fmt.Errorf("-cpus requires -bench")
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("-cpus requires package arguments")
	}
	var matrix []int
	for _, f := range strings.Split(cpuList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpus entry %q", f)
		}
		matrix = append(matrix, n)
	}
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem", "-cpu", cpuList, "-count", "1"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkgs...)
	env := os.Environ()
	if scale > 0 {
		env = append(env, fmt.Sprintf("MSGSCOPE_BENCH_SCALE=%g", scale))
	}
	out := make([]strings.Builder, len(dirs))
	for rep := 0; rep < max(count, 1); rep++ {
		for i, dir := range dirs {
			cmd := exec.Command("go", args...)
			cmd.Dir = dir
			cmd.Stdout = io.MultiWriter(&out[i], os.Stderr)
			cmd.Stderr = os.Stderr
			cmd.Env = env
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("go %s (in %s): %w", strings.Join(args, " "), dir, err)
			}
		}
	}
	docs := make([]document, len(dirs))
	for i := range dirs {
		doc, err := parseBench(strings.NewReader(out[i].String()), true)
		if err != nil {
			return nil, err
		}
		doc.CPUMatrix = matrix
		doc.BenchScale = scale
		docs[i] = doc
	}
	return docs, nil
}

// parseBench reads `go test -bench` output and builds the JSON document.
// In matrix mode the trailing "-<GOMAXPROCS>" of each name is parsed into
// the CPUs field (the same benchmark appears once per count); otherwise it
// is trimmed, so names are stable across machines.
func parseBench(r io.Reader, matrix bool) (document, error) {
	doc := document{
		Tool:      "benchjson",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Cores:     runtime.NumCPU(),
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var b benchmark
		if matrix {
			b.Name, b.CPUs = splitProcSuffix(m[1])
		} else {
			b.Name = trimProcSuffix(m[1])
		}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				b.NsPerOp, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				// ReportMetric columns (ns/rec, liveB/rec, …).
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					continue
				}
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64, 2)
				}
				b.Metrics[unit] = f
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	doc.Benchmarks = bestOf(doc.Benchmarks)
	doc.Derived = speedups(doc.Benchmarks)
	return doc, nil
}

// bestOf collapses repeated runs of the same configuration (go test -count N)
// to the single fastest row. On a shared or frequency-scaling host the
// minimum over repetitions is the standard estimator of a benchmark's true
// cost; keeping the whole winning row (rather than a per-column min) keeps
// ns/op, allocs and rate metrics mutually consistent.
func bestOf(bs []benchmark) []benchmark {
	idx := make(map[string]int, len(bs))
	out := bs[:0:0]
	for _, b := range bs {
		k := benchKey(b)
		if i, ok := idx[k]; ok {
			if b.NsPerOp < out[i].NsPerOp {
				out[i] = b
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, b)
	}
	return out
}

// benchKey identifies a benchmark configuration across runs: matrix-mode
// results are distinct per CPU count, single-configuration results by name
// alone.
func benchKey(b benchmark) string {
	if b.CPUs > 0 {
		return fmt.Sprintf("%s[cpu=%d]", b.Name, b.CPUs)
	}
	return b.Name
}

// regressions diffs the fresh benchmarks against the baseline and reports
// every shared configuration whose ns/op, allocs/op or a shared custom
// metric moved the wrong way by more than tol (fractional). Custom metrics
// denominated per record or operation (ns/rec, liveB/rec) are
// lower-is-better, so growth is a regression; rate metrics whose unit ends
// in "/s" (tok/s) are higher-is-better throughputs, so a drop is the
// regression. Benchmarks present on only one side are ignored: baselines
// and fresh runs may cover different subsets.
func regressions(base, fresh []benchmark, tol float64) []string {
	byName := make(map[string]benchmark, len(base))
	for _, b := range base {
		byName[benchKey(b)] = b
	}
	var out []string
	for _, f := range fresh {
		b, ok := byName[benchKey(f)]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && f.NsPerOp > b.NsPerOp*(1+tol) {
			out = append(out, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.1f%%)",
				benchKey(f), b.NsPerOp, f.NsPerOp, (f.NsPerOp/b.NsPerOp-1)*100))
		}
		if b.AllocsPerOp > 0 && float64(f.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol) {
			out = append(out, fmt.Sprintf("%s: allocs/op %d -> %d (+%.1f%%)",
				benchKey(f), b.AllocsPerOp, f.AllocsPerOp,
				(float64(f.AllocsPerOp)/float64(b.AllocsPerOp)-1)*100))
		}
		for unit, bv := range b.Metrics {
			fv, ok := f.Metrics[unit]
			if !ok || bv <= 0 {
				continue
			}
			if strings.HasSuffix(unit, "/s") {
				if fv < bv*(1-tol) {
					out = append(out, fmt.Sprintf("%s: %s %.2f -> %.2f (%.1f%%)",
						benchKey(f), unit, bv, fv, (fv/bv-1)*100))
				}
			} else if fv > bv*(1+tol) {
				out = append(out, fmt.Sprintf("%s: %s %.2f -> %.2f (+%.1f%%)",
					benchKey(f), unit, bv, fv, (fv/bv-1)*100))
			}
		}
	}
	sort.Strings(out)
	return out
}

// trimProcSuffix drops go test's trailing "-<GOMAXPROCS>" from a benchmark
// name, so names are stable across machines.
func trimProcSuffix(name string) string {
	s, _ := splitProcSuffix(name)
	return s
}

// splitProcSuffix separates go test's trailing "-<GOMAXPROCS>" from a
// benchmark name, returning 0 when the name has none.
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 0
	}
	return name[:i], n
}

// speedups derives serial/parallel wall-clock ratios for every benchmark
// that has both sub-modes, per CPU count in matrix mode.
func speedups(bs []benchmark) map[string]string {
	ns := map[string]float64{}
	for _, b := range bs {
		ns[benchKey(b)] = b.NsPerOp
	}
	out := map[string]string{}
	for _, b := range bs {
		var cpuTag string
		if b.CPUs > 0 {
			cpuTag = fmt.Sprintf("[cpu=%d]", b.CPUs)
		}
		base, ok := strings.CutSuffix(b.Name, "/serial")
		if !ok {
			continue
		}
		parallel, ok := ns[base+"/parallel"+cpuTag]
		if !ok || parallel == 0 {
			continue
		}
		out[base+"_speedup"+cpuTag] = fmt.Sprintf("%.2fx", b.NsPerOp/parallel)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
