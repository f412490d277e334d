// Command studybench is msgscope's study benchmark: it runs one workload's
// study (world generation, collection over loopback HTTP, analysis and
// rendering) in a closed loop, checks every study's output, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics — as one
// JSON line. See README.md for the workloads and every metric.
//
// Each study runs in a child process of this binary, so a study's peak
// RSS is its own and a hung study can be killed by the watchdog.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

const (
	// minStudies is the fewest timed studies a run makes, however short
	// --seconds is: the reported values are medians over them.
	minStudies = 3
	// setupRuns is how many set-up-only children a run adds to its
	// studies' own set-ups: one set-up is short, so its median needs more
	// samples than the studies give.
	setupRuns = 12
	// studyWatchdog is the longest one study may run before it is killed
	// and counted as failed.
	studyWatchdog = 90 * time.Second
	// runBudget bounds a whole benchmark invocation; no study is started
	// or left running past it.
	runBudget = 170 * time.Second
)

func main() {
	wname := flag.String("workload", "", "workload: paper-window, join-burst, durable-resume, or all (one after another, one result line each)")
	seed := flag.Uint64("seed", 1, "run seed: the fault draws and the LDA chain")
	seconds := flag.Int("seconds", 25, "how long to repeat timed studies")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, a GOMAXPROCS=1 repeat and the tracing overhead")
	child := flag.String("child", "", "internal: run one study (timed, traced or reference), set-up or world generation in this process and print it as JSON")
	dir := flag.String("dir", "", "internal: the child study's scratch directory")
	run := flag.String("run", "", "internal: the child study's run id")
	flag.Parse()

	todo := workloads
	if *wname != "all" {
		w, ok := findWorkload(*wname)
		if !ok {
			fmt.Fprintf(os.Stderr, "studybench: unknown workload %q\n", *wname)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	if *child != "" {
		os.Exit(childMain(todo[0], *seed, *child, *dir, *run))
	}
	for _, w := range todo {
		if err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "studybench:", err)
			os.Exit(1)
		}
	}
}

// childMain runs one study and prints it as a JSON line.
func childMain(w workload, seed uint64, mode, dir, run string) int {
	var out *studyOut
	var err error
	switch mode {
	case "setup":
		out, err = runSetup(w, seed, dir)
	case "world":
		out = runWorld(w)
	default:
		out, err = runStudy(w, seed, dir, mode == "traced", mode != "reference", run)
	}
	if err != nil {
		out = &studyOut{Err: err.Error()}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil || out.Err != "" {
		return 1
	}
	return 0
}

// bencher launches child studies of one workload and seed.
type bencher struct {
	w        workload
	seed     uint64
	exe      string
	work     string
	deadline time.Time
	watchdog time.Duration
	n        int
}

// study runs one child study in mode; env is added to the child's
// environment. A study that errors or outlives the watchdog returns an
// error.
func (b *bencher) study(mode string, env ...string) (*studyOut, error) {
	b.n++
	run := fmt.Sprintf("%s-seed%d-%s-%d", b.w.name, b.seed, mode, b.n)
	timeout := min(b.watchdog, time.Until(b.deadline))
	if timeout <= 0 {
		return nil, fmt.Errorf("%s: not started, the run's %s budget is spent", run, runBudget)
	}
	dir := filepath.Join(b.work, run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "-child", mode, "-workload", b.w.name,
		"-seed", fmt.Sprint(b.seed), "-dir", dir, "-run", run)
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.Env = append(cmd.Env, env...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	// A child must not outlive the benchmark, even when the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: killed by the watchdog after %s", run, timeout)
	}
	var out studyOut
	if jerr := json.Unmarshal(bytes.TrimSpace(stdout), &out); jerr != nil {
		return nil, fmt.Errorf("%s: %v (output: %v)", run, err, jerr)
	}
	if out.Err != "" {
		return nil, fmt.Errorf("%s: %s", run, out.Err)
	}
	return &out, err
}

// tally accumulates a run's studies and their operation counts.
type tally struct {
	ok            []*studyOut
	failedStudies int
	wrong         bool
	attempted     int64
	failed        int64
}

// add books one study: a study that errored or failed its output check
// counts all of its operations as failed.
func (t *tally) add(o *studyOut, err error, ref *output) {
	if err == nil {
		if cerr := check(o.Output, ref); cerr != nil {
			t.wrong = true
			err = fmt.Errorf("output check: %w", cerr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench: study failed:", err)
		t.failedStudies++
		return
	}
	t.ok = append(t.ok, o)
	t.attempted += o.Attempted
	t.failed += o.Deferred
}

// close charges the failed studies: each counts as many failed operations
// as the median successful study attempted (at least one).
func (t *tally) close() {
	per := int64(1)
	if len(t.ok) > 0 {
		per = max(1, int64(median(t.values(func(o *studyOut) float64 { return float64(o.Attempted) }))))
	}
	t.attempted += per * int64(t.failedStudies)
	t.failed += per * int64(t.failedStudies)
}

func (t *tally) values(f func(*studyOut) float64) []float64 {
	out := make([]float64, len(t.ok))
	for i, o := range t.ok {
		out[i] = f(o)
	}
	return out
}

func (t *tally) correct() bool { return !t.wrong && len(t.ok) > 0 }

func bench(w workload, seed uint64, seconds time.Duration, traced bool) error {
	start := time.Now()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := filepath.Join(".bench_build", "studybench")
	work := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bencher{w: w, seed: seed, exe: exe, work: work,
		deadline: start.Add(runBudget), watchdog: studyWatchdog}

	var t tally
	// Every study must match the run's reference output. On the durable
	// workload that is an untimed uninterrupted run of the same options,
	// made once per run; without it no study can be checked, so the run is
	// not correct. On the others it is the first good timed study.
	var ref *output
	if w.durable {
		o, err := b.study("reference")
		if err != nil {
			t.add(nil, fmt.Errorf("reference: %w", err), nil)
			t.wrong = true
		} else {
			ref = &o.Output
		}
	}

	var setups []float64
	for range setupRuns {
		if o, err := b.study("setup"); err != nil {
			t.add(nil, err, nil)
		} else {
			setups = append(setups, o.SetupS)
		}
	}

	tested := false
	until := time.Now().Add(seconds)
	for i := 0; (i < minStudies || time.Now().Before(until)) && time.Now().Before(b.deadline); i++ {
		o, err := b.study("timed")
		t.add(o, err, ref)
		if ref == nil && len(t.ok) > 0 {
			ref = &t.ok[0].Output
		}
		if !tested && len(t.ok) > 0 {
			// Show on the first good output that the check is live.
			if err := selfTest(t.ok[0].Output, ref); err != nil {
				return err
			}
			tested = true
		}
	}

	metrics := map[string]float64{}
	e2e := map[string][]float64{
		"setup_s":     append(setups, t.values(func(o *studyOut) float64 { return o.SetupS })...),
		"collect_s":   t.values(func(o *studyOut) float64 { return o.CollectS }),
		"analyze_s":   t.values(func(o *studyOut) float64 { return o.AnalyzeS }),
		"study_s":     t.values(func(o *studyOut) float64 { return o.StudyS }),
		"resume_s":    t.values(func(o *studyOut) float64 { return o.ResumeS }),
		"peak_rss_mb": t.values(func(o *studyOut) float64 { return o.PeakRSSMB }),
		"alloc_mb":    t.values(func(o *studyOut) float64 { return o.AllocMB }),
		"disk_mb":     t.values(func(o *studyOut) float64 { return o.DiskMB }),
	}
	for name, xs := range e2e {
		metrics[name] = median(xs)
	}
	fmt.Printf("workload %s seed %d: %d timed studies ok, %d failed\n", w.name, seed, len(t.ok), t.failedStudies)
	names := make([]string, 0, len(e2e))
	for name := range e2e {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := e2e[name]
		fmt.Printf("  %-12s median %.4f  p25 %.4f  p75 %.4f  (n=%d)\n",
			name, median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		if err := b.traced(&t, metrics, ref); err != nil {
			return err
		}
	}
	t.close()
	metrics["failed_frac"] = float64(t.failed) / float64(t.attempted)
	fmt.Printf("  failed_frac  %.6f  (%d of %d operations)\n", metrics["failed_frac"], t.failed, t.attempted)
	return printResult(t, defs, metrics)
}

// traced runs one traced study at the default GOMAXPROCS and one at
// GOMAXPROCS=1, times world generation alone and whole set-ups in
// alternating fresh processes, fills the per-layer metrics and writes the
// spans out.
func (b *bencher) traced(t *tally, metrics map[string]float64, ref *output) error {
	untraced := metrics["study_s"]
	full, err := b.study("traced")
	t.add(full, err, ref)
	one, err1 := b.study("traced", "GOMAXPROCS=1")
	t.add(one, err1, ref)
	// World generation alone and whole set-ups alternate, so both medians
	// see the same machine; their difference is the service wiring.
	var worlds, setups []float64
	for range setupRuns {
		for _, mode := range []string{"world", "setup"} {
			if o, err := b.study(mode); err != nil {
				t.add(nil, err, nil)
			} else if mode == "world" {
				worlds = append(worlds, o.SetupS)
			} else {
				setups = append(setups, o.SetupS)
			}
		}
	}
	metrics["simworld.new_s"] = median(worlds)
	metrics["setup.services_s"] = median(setups) - metrics["simworld.new_s"]
	if err1 == nil {
		for _, name := range coreMatrix {
			metrics[name+".1core"] = one.Layers[name]
		}
	}
	if err != nil {
		return nil // counted as failed; there is nothing traced to report
	}
	for name, v := range full.Layers {
		metrics[name] = v
	}
	metrics["trace.overhead_s"] = full.StudyS - untraced

	path := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
	spans := full.Spans
	if err1 == nil {
		spans = append(spans, one.Spans...)
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	writeShares(os.Stdout, &tracer{spans: full.Spans})
	fmt.Printf("  %d spans written to %s\n", len(spans), path)
	return nil
}

// printResult prints the human-readable metric list and then the result
// line: exactly the metrics in defs.
func printResult(t tally, defs []metricDef, metrics map[string]float64) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{t.correct(), t.attempted, t.failed, map[string]value{}}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("  %-28s %14.6f %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
