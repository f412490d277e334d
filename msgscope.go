// Package msgscope reproduces the measurement study "Demystifying the
// Messaging Platforms' Ecosystem Through the Lens of Twitter" (IMC 2020)
// over a fully simulated ecosystem: a synthetic Twitter (Search + Streaming
// APIs) and synthetic WhatsApp, Telegram, and Discord services are served
// over in-process HTTP, and the complete collection pipeline — URL-pattern
// discovery, daily metadata monitoring, group joining, message collection,
// topic modeling, and PII analysis — measures them exactly the way the
// paper's tooling measured the real platforms.
//
// Quick start:
//
//	res, err := msgscope.Run(ctx, msgscope.Options{Seed: 42, Scale: 0.02})
//	if err != nil { ... }
//	fmt.Println(res.Render("table2"))
//
// Experiment IDs follow the paper: table1..table5, fig1..fig9. See
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results.
package msgscope

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"msgscope/internal/checkpoint"
	"msgscope/internal/core"
	"msgscope/internal/faults"
	"msgscope/internal/join"
	"msgscope/internal/par"
	"msgscope/internal/prof"
	"msgscope/internal/report"
	"msgscope/internal/store"
)

// Options configures a study run. The zero value runs the paper's 38-day
// methodology at 2% volume scale with paper-proportional join targets.
type Options struct {
	// Seed makes the whole run reproducible.
	Seed uint64
	// Scale multiplies workload volumes (1.0 = the paper's scale: 2.2M
	// tweets, 351K group URLs, 8.2M messages).
	Scale float64
	// Days is the collection window (default 38, as in the paper).
	Days int
	// JoinWhatsApp, JoinTelegram, JoinDiscord override the join-phase
	// sample sizes (paper: 416, 100, 100). Zero means paper-proportional
	// at the configured scale.
	JoinWhatsApp, JoinTelegram, JoinDiscord int
	// MaxMessagesPerGroup bounds history collection per joined group
	// (0 = unlimited).
	MaxMessagesPerGroup int
	// GenerateMessageText makes collected messages carry bodies (the
	// analyses only need types and authors, so this defaults off).
	GenerateMessageText bool
	// MonitorEveryDays sets the metadata probe cadence (default 1 =
	// daily, as in the paper).
	MonitorEveryDays int
	// SearchEveryHours sets the Search API polling cadence (default 1 =
	// hourly, as in the paper).
	SearchEveryHours int
	// TopicKeywords restricts the join phase to groups whose monitored
	// title matches one of the keywords (focused collection; Section 8
	// future work).
	TopicKeywords []string
	// SocialDiscovery enables the secondary discovery source: a simulated
	// second social network whose public feed is polled alongside the
	// Twitter APIs (Section 8 future work).
	SocialDiscovery bool
	// SearchWorkers bounds the hourly Search API fan-out (0 = one worker
	// per tracked URL pattern, 1 = serial). The collected dataset is
	// identical at any setting; only wall-clock time changes.
	SearchWorkers int
	// CollectWorkers bounds the join-phase per-group message collection
	// fan-out (0 = default bound, 1 = serial). Same determinism guarantee
	// as SearchWorkers.
	CollectWorkers int
	// Faults, when non-nil, injects deterministic failures — 500s, dropped
	// connections, malformed bodies, rate-limit bursts, scheduled outage
	// windows — into every simulated service. The same options and plan
	// yield identical output at any worker count; groups whose requests
	// exhaust the retry budget are deferred and re-queued, never silently
	// dropped (see GroupOutcomes).
	Faults *FaultPlan
	// ProfilePhases records per-phase allocation deltas (bytes, objects,
	// GC cycles) during the run, readable afterwards via
	// Result.ProfilePhases. Off by default: the recorder costs a few
	// microseconds per phase boundary when enabled and nothing when not.
	ProfilePhases bool
	// CheckpointDir, when non-empty, makes the run resumable: a manifest
	// plus append-only record logs are persisted there at every pipeline
	// boundary, and Resume continues a killed run from the last boundary
	// with byte-identical final output. The directory also stores the
	// serialized options, so Resume needs no other input.
	CheckpointDir string
	// MemBudget, when positive, caps the live heap bytes of the spillable
	// column families: cold rows are sealed into immutable mmap-backed
	// segment files and served from the page cache instead of the heap.
	// Output is byte-identical at any budget — only peak memory changes —
	// so the field is excluded from the checkpoint options hash (it cannot
	// change a run's data).
	MemBudget int64
	// SpillDir overrides where a budgeted run keeps its segment files
	// (default: CheckpointDir/segments when checkpointing, else a temp
	// directory). Segments are per-run scratch: every start, fresh or
	// resumed, deletes the *.seg and *.tmp files already in it.
	SpillDir string
}

// FaultPlan configures deterministic fault injection for a run. Rates are
// per-request probabilities in [0, 1]; windows are half-open [From, To)
// intervals of virtual study time. The zero value injects nothing.
type FaultPlan = faults.Plan

// FaultWindow is a half-open [From, To) window of virtual time, used for
// scheduled outages and rate-limit bursts in a FaultPlan.
type FaultWindow = faults.Window

// PhaseStat is one pipeline phase's allocation tally (see
// Options.ProfilePhases).
type PhaseStat = prof.PhaseStat

// StageStat is one analysis stage's wall-clock tally (see
// Result.ProfileStages).
type StageStat = prof.StageStat

// RuntimeSample is a point-in-time snapshot of the process's memory
// counters (live heap, cumulative allocations, GC cycles, pause total).
type RuntimeSample = prof.Sample

// Result is a completed study with its collected dataset. The dataset is
// frozen, so every experiment output is memoized: Render, FigureCSV, and
// FigureSVG compute each artifact once and serve it from cache after that,
// safely under concurrent use (e.g. HTTP handlers).
type Result struct {
	study *core.Study
	ds    report.Dataset
	memo  memoCache
}

// Run executes the full methodology and returns the collected dataset.
func Run(ctx context.Context, opts Options) (*Result, error) {
	return runWithHook(ctx, opts, nil)
}

// Resume continues a study previously started with Options.CheckpointDir
// and killed before completion. The run's options are reconstructed from
// the checkpoint manifest (validated against its options hash), the
// dataset collected so far is replayed from the record logs, and the
// pipeline continues from the last durable boundary. The returned result
// is byte-identical — dataset JSONL, figures, tables — to the one an
// uninterrupted run would have produced.
func Resume(ctx context.Context, dir string) (*Result, error) {
	return resumeWithHook(ctx, dir, nil)
}

// buildConfig maps Options onto the core configuration, computing the
// checkpoint options hash and payload when checkpointing is on. Run and
// Resume share it so a resumed study is wired exactly like the original.
func buildConfig(opts Options) (core.Config, error) {
	cfg := core.Config{
		Seed:                  opts.Seed,
		Scale:                 opts.Scale,
		Days:                  opts.Days,
		MaxMessagesPerGroup:   opts.MaxMessagesPerGroup,
		GenerateMessageText:   opts.GenerateMessageText,
		MonitorEveryDays:      opts.MonitorEveryDays,
		SearchEveryHours:      opts.SearchEveryHours,
		JoinTitleKeywords:     opts.TopicKeywords,
		EnableSocialDiscovery: opts.SocialDiscovery,
		SearchWorkers:         opts.SearchWorkers,
		CollectWorkers:        opts.CollectWorkers,
		Faults:                opts.Faults,
		CheckpointDir:         opts.CheckpointDir,
		MemBudget:             opts.MemBudget,
		SpillDir:              opts.SpillDir,
		Join: join.Targets{
			WhatsApp: opts.JoinWhatsApp,
			Telegram: opts.JoinTelegram,
			Discord:  opts.JoinDiscord,
		},
	}
	if opts.ProfilePhases {
		cfg.Prof = prof.NewRecorder()
	}
	if opts.CheckpointDir != "" {
		hash, err := hashOptions(opts)
		if err != nil {
			return core.Config{}, err
		}
		payload, err := json.Marshal(opts)
		if err != nil {
			return core.Config{}, fmt.Errorf("msgscope: encoding options: %w", err)
		}
		cfg.OptionsHash = hash
		cfg.OptionsPayload = payload
	}
	return cfg, nil
}

// hashOptions fingerprints the determinism-relevant options: fields that
// cannot change a run's data — worker counts, profiling, the checkpoint
// location itself — are excluded, so a resume may move the directory or
// adjust parallelism without invalidating the checkpoint.
func hashOptions(opts Options) (string, error) {
	opts.CheckpointDir = ""
	opts.SearchWorkers = 0
	opts.CollectWorkers = 0
	opts.ProfilePhases = false
	opts.MemBudget = 0
	opts.SpillDir = ""
	b, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("msgscope: hashing options: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func runWithHook(ctx context.Context, opts Options, hook func(day int, step string) error) (*Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.StepHook = hook
	s, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Run(ctx); err != nil {
		return nil, err
	}
	return &Result{study: s, ds: s.Dataset()}, nil
}

func resumeWithHook(ctx context.Context, dir string, hook func(day int, step string) error) (*Result, error) {
	m, err := checkpoint.Read(dir)
	if err != nil {
		return nil, err
	}
	if len(m.Options) == 0 {
		return nil, fmt.Errorf("%w: manifest carries no options", checkpoint.ErrCorrupt)
	}
	var opts Options
	if err := json.Unmarshal(m.Options, &opts); err != nil {
		return nil, fmt.Errorf("%w: decoding options: %v", checkpoint.ErrCorrupt, err)
	}
	hash, err := hashOptions(opts)
	if err != nil {
		return nil, err
	}
	if hash != m.OptionsHash {
		return nil, fmt.Errorf("%w: manifest records %q, stored options hash to %q",
			checkpoint.ErrOptionsMismatch, m.OptionsHash, hash)
	}
	opts.CheckpointDir = dir
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.StepHook = hook
	s, err := core.ResumeStudy(cfg, dir, m)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Run(ctx); err != nil {
		return nil, err
	}
	return &Result{study: s, ds: s.Dataset()}, nil
}

// ProfilePhases returns the per-phase allocation stats recorded during
// the run. Nil unless Options.ProfilePhases was set.
func (r *Result) ProfilePhases() []PhaseStat { return r.study.ProfilePhases() }

// ProfileStages returns the wall time spent in each analysis stage —
// "lda", "aggregate", "figures" — while experiments were computed from
// this result. Nil unless Options.ProfilePhases was set; stages appear
// only after the experiments that exercise them have been rendered.
func (r *Result) ProfileStages() []StageStat { return r.study.ProfileStages() }

// Runtime samples the process's current memory counters — cheap enough
// for an HTTP status endpoint, but it briefly stops the world, so don't
// poll it in a tight loop.
func Runtime() RuntimeSample { return prof.TakeSample() }

// Experiments lists the supported experiment IDs in paper order.
func Experiments() []string {
	ids := make([]string, 0, len(experiments))
	for id := range experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

var experiments = map[string]func(*Result) string{
	"table1": func(*Result) string { return report.Table1() },
	"table2": func(r *Result) string { return report.Table2(r.ds).Render() },
	"table3": func(r *Result) string {
		return report.Table3(r.ds, report.Table3Config{
			Seed: r.study.Cfg.Seed, Iterations: 120, MaxTweets: 4000,
		}).Render()
	},
	"table4": func(r *Result) string { return report.Table4(r.ds).Render() },
	"table5": func(r *Result) string { return report.Table5(r.ds).Render() },
	"fig1":   func(r *Result) string { return report.Fig1(r.ds).Render() },
	"fig2":   func(r *Result) string { return report.Fig2(r.ds).Render() },
	"fig3":   func(r *Result) string { return report.Fig3(r.ds).Render() },
	"fig4":   func(r *Result) string { return report.Fig4(r.ds).Render() },
	"fig5":   func(r *Result) string { return report.Fig5(r.ds).Render() },
	"fig6":   func(r *Result) string { return report.Fig6(r.ds).Render() },
	"fig7":   func(r *Result) string { return report.Fig7(r.ds).Render() },
	"fig8":   func(r *Result) string { return report.Fig8(r.ds).Render() },
	"fig9":   func(r *Result) string { return report.Fig9(r.ds).Render() },
	// Section 5's unnumbered analyses.
	"creators":  func(r *Result) string { return report.Creators(r.ds).Render() },
	"countries": func(r *Result) string { return report.Countries(r.ds).Render() },
	// Section 8 future work: toxic-content prevalence (needs message
	// text collection, Options.GenerateMessageText).
	"toxicity": func(r *Result) string { return report.Toxicity(r.ds).Render() },
	// Section 8 future work: the second discovery source (needs
	// Options.SocialDiscovery).
	"crosssource": func(r *Result) string { return report.CrossSource(r.ds).Render() },
}

// Render returns one of the paper's tables or figures from the run's
// dataset. Valid IDs are listed by Experiments. The first call computes
// the experiment; later calls (from any goroutine) return the cached
// rendering.
func (r *Result) Render(experiment string) string {
	id := strings.ToLower(experiment)
	if _, ok := experiments[id]; !ok {
		return fmt.Sprintf("unknown experiment %q (valid: %s)",
			experiment, strings.Join(Experiments(), ", "))
	}
	return cached(r, "render/"+id, func() string { return r.Recompute(id) })
}

// Recompute re-derives an experiment from the raw dataset, bypassing the
// cache (the cold path; useful for benchmarking the derivation itself).
func (r *Result) Recompute(experiment string) string {
	id := strings.ToLower(experiment)
	fn, ok := experiments[id]
	if !ok {
		return fmt.Sprintf("unknown experiment %q (valid: %s)",
			experiment, strings.Join(Experiments(), ", "))
	}
	// Deriving a figure counts toward the "figures" analysis stage; the
	// first one also triggers the shared aggregation pass, which shows up
	// under its own "aggregate" stage (nested inside this one).
	if r.ds.Prof != nil && strings.HasPrefix(id, "fig") {
		defer r.ds.Prof.StartStage("figures")()
	}
	return fn(r)
}

// RenderAll regenerates every table and figure, computing independent
// experiments in parallel (each lands in the cache, so a later Render of
// any single ID is free).
func (r *Result) RenderAll() string {
	ids := Experiments()
	outs := make([]string, len(ids))
	tasks := make([]func() error, len(ids))
	for i, id := range ids {
		tasks[i] = func() error {
			outs[i] = r.Render(id)
			return nil
		}
	}
	par.Do(0, tasks)
	var sb strings.Builder
	for _, out := range outs {
		sb.WriteString(out)
		sb.WriteString("\n")
	}
	return sb.String()
}

// Summary reports headline counts: discovered URLs, tweets, messages, and
// pipeline counters.
func (r *Result) Summary() string {
	t2 := r.table2()
	cs := r.study.CollectorStats()
	ms := r.study.MonitorStats()
	js := r.study.JoinStats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "collected: %d tweets (%d users), %d group URLs, %d control tweets\n",
		t2.Total.Tweets, t2.Total.TweetUsers, t2.Total.GroupURLs, cs.ControlTweets)
	fmt.Fprintf(&sb, "sources: search=%d stream=%d rate-limit-hits=%d\n",
		cs.SearchTweets, cs.StreamTweets, cs.RateLimitHits)
	if cs.SocialPosts > 0 {
		fmt.Fprintf(&sb, "secondary source: %d posts, %d groups discovered only there\n",
			cs.SocialPosts, cs.SocialNew)
	}
	fmt.Fprintf(&sb, "monitoring: %d probes (%d alive, %d revoked)\n",
		ms.Probes, ms.AliveProbes, ms.RevokedProbes)
	fmt.Fprintf(&sb, "joined: %d groups (%d dead invites skipped, %d flood waits); %d messages from %d users\n",
		js.Joined, js.DeadInvites, js.FloodWaits, t2.Total.Messages, t2.Total.MessageUsers)
	// The raw injected-fault total is omitted on purpose: the HTTP
	// transport transparently re-sends requests whose connection died on a
	// timeout fault, so the injector's counters depend on connection reuse
	// (see Study.FaultCounts). The deferral accounting below is exact and
	// deterministic.
	if r.study.Cfg.Faults != nil {
		fmt.Fprintf(&sb, "faults: deferred %d probes, %d joins/collections, %d search queries (retry budget exhausted; re-queued)\n",
			ms.Deferred, js.Deferred, cs.SearchDeferred)
	}
	return sb.String()
}

// GroupOutcomes classifies every discovered group URL by how the run left
// it: last observed alive, observed revoked, deferred (some pipeline stage
// exhausted its retry budget and re-queued the group), or lost (neither
// observed nor deferred). The fault harness's accounting invariant is
// Alive + Revoked + Deferred + Lost == Discovered with Lost == 0: faults
// may delay a group's data, but never silently drop the group.
type GroupOutcomes struct {
	Discovered int
	Alive      int
	Revoked    int
	Deferred   int
	Lost       int
}

// GroupOutcomes tallies the final state of every discovered group.
func (r *Result) GroupOutcomes() GroupOutcomes {
	var out GroupOutcomes
	list := r.ds.Store.Groups()
	for i, n := 0, list.Len(); i < n; i++ {
		g := list.At(i)
		out.Discovered++
		obs := list.Obs(i)
		switch {
		case g.Deferred:
			out.Deferred++
		case obs.Len() > 0:
			if last, _ := obs.Last(); last.Alive {
				out.Alive++
			} else {
				out.Revoked++
			}
		default:
			out.Lost++
		}
	}
	return out
}

// SaveDataset writes the collected dataset as JSONL files under dir.
func (r *Result) SaveDataset(dir string) error {
	return r.ds.Store.Save(dir)
}

// SaveFigureCSVs writes each figure's underlying data as CSV under dir
// (fig1.csv … fig9.csv), plot-ready in long format. Figures are computed
// in parallel and cached, so a later FigureCSV or SaveFigureSVGs call
// reuses them.
func (r *Result) SaveFigureCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ids := report.FigureIDs()
	tasks := make([]func() error, len(ids))
	for i, id := range ids {
		tasks[i] = func() error {
			data, err := r.FigureCSV(id)
			if err != nil {
				return fmt.Errorf("msgscope: writing %s.csv: %w", id, err)
			}
			return os.WriteFile(filepath.Join(dir, id+".csv"), data, 0o644)
		}
	}
	return par.Do(0, tasks)
}

// SaveFigureSVGs renders every figure as an SVG chart under dir
// (fig1.svg … fig9.svg), computing uncached figures in parallel.
func (r *Result) SaveFigureSVGs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ids := report.FigureIDs()
	tasks := make([]func() error, len(ids))
	for i, id := range ids {
		tasks[i] = func() error {
			svg, err := r.FigureSVG(id)
			if err != nil {
				return fmt.Errorf("msgscope: writing %s.svg: %w", id, err)
			}
			return os.WriteFile(filepath.Join(dir, id+".svg"), []byte(svg), 0o644)
		}
	}
	return par.Do(0, tasks)
}

// SourceRecall reports, over all collected tweets, the fraction each API
// would have recovered alone (search-only, stream-only) and the overlap
// seen by both — the discrepancy that makes the paper merge the two.
func (r *Result) SourceRecall() (search, stream, both float64) {
	tweets := r.ds.Tweets()
	if tweets.Len() == 0 {
		return 0, 0, 0
	}
	var nSearch, nStream, nBoth int
	for i, n := 0, tweets.Len(); i < n; i++ {
		t := tweets.At(i)
		hasSearch := t.Source&store.SourceSearch != 0
		hasStream := t.Source&store.SourceStream != 0
		if hasSearch {
			nSearch++
		}
		if hasStream {
			nStream++
		}
		if hasSearch && hasStream {
			nBoth++
		}
	}
	n := float64(tweets.Len())
	return float64(nSearch) / n, float64(nStream) / n, float64(nBoth) / n
}
