package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"msgscope/internal/checkpoint"
	"msgscope/internal/core"
	"msgscope/internal/prof"
	"msgscope/internal/report"
	"msgscope/internal/simworld"
	"msgscope/internal/store"
	"msgscope/internal/urlpat"
)

// studyOut is what one study reports back to the benchmark: its
// end-to-end timings, its operation counts, the facts the output check
// reads and, when traced, its per-layer metrics and spans.
type studyOut struct {
	Err string `json:"err,omitempty"`

	SetupS    float64 `json:"setup_s"`
	CollectS  float64 `json:"collect_s"`
	AnalyzeS  float64 `json:"analyze_s"`
	StudyS    float64 `json:"study_s"`
	ResumeS   float64 `json:"resume_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	AllocMB   float64 `json:"alloc_mb"`
	DiskMB    float64 `json:"disk_mb"`

	// Attempted counts probes, join attempts and hourly queries (hours x
	// tracked patterns); Deferred counts the ones that exhausted their
	// retry budget.
	Attempted int64 `json:"attempted"`
	Deferred  int64 `json:"deferred"`

	Output output `json:"output"`

	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

// experimentIDs is every experiment the msgscope engine's RenderAll
// renders, in its order.
var experimentIDs = []string{
	"countries", "creators", "crosssource",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"table1", "table2", "table3", "table4", "table5", "toxicity",
}

func renderExperiment(ds report.Dataset, seed uint64, id string) string {
	switch id {
	case "table1":
		return report.Table1()
	case "table2":
		return report.Table2(ds).Render()
	case "table3":
		return report.Table3(ds, report.Table3Config{Seed: seed, Iterations: 120, MaxTweets: 4000}).Render()
	case "table4":
		return report.Table4(ds).Render()
	case "table5":
		return report.Table5(ds).Render()
	case "creators":
		return report.Creators(ds).Render()
	case "countries":
		return report.Countries(ds).Render()
	case "toxicity":
		return report.Toxicity(ds).Render()
	case "crosssource":
		return report.CrossSource(ds).Render()
	}
	f, _ := report.Figure(ds, id)
	return f.Render()
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runStudy runs one study of w end to end in this process: NewStudy, Run,
// then the analysis. With halt, a durable study is stopped after
// haltDay's monitor step and finished through checkpoint.Read,
// core.ResumeStudy and a second Run. dir is a fresh scratch directory for
// the checkpoint. A traced study also records spans and fills Layers.
func runStudy(w workload, seed uint64, dir string, traced, halt bool, run string) (*studyOut, error) {
	ctx := context.Background()
	tr := newTracer(traced, run)
	out := &studyOut{}
	ckptDir := filepath.Join(dir, "ckpt")
	cfg := w.config(seed, ckptDir)
	layers := map[string]float64{}
	var gc0 prof.Sample
	if traced {
		cfg.Prof = prof.NewRecorder()
	}
	halt = halt && w.durable
	halted := false
	if traced || halt {
		cfg.StepHook = func(day int, step string) error {
			tr.step(day, step)
			if halt && !halted && day == haltDay && step == "monitor" {
				halted = true
				return core.ErrHalted
			}
			return nil
		}
	}

	root := tr.reserve()
	if traced {
		gc0 = prof.TakeSample()
	}
	allocs0 := heapAllocBytes()
	t0 := time.Now()
	s, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	out.SetupS = since(t0)
	tr.add(root, "setup", t0, time.Now())

	leg := tr.reserve()
	tr.beginLeg(leg)
	t := time.Now()
	err = s.Run(ctx)
	out.CollectS = since(t)
	tr.record(leg, root, "run", 0, t, time.Now())
	if halt {
		s.Close()
		if !errors.Is(err, core.ErrHalted) {
			return nil, fmt.Errorf("durable leg 1 did not halt at day %d monitor: %v", haltDay, err)
		}
		if traced {
			// The restore's own NewStudy runs in this warm process; time a
			// plain one here so resume.replay_s can leave it out.
			t = time.Now()
			warm, err := core.NewStudy(cfg)
			if err != nil {
				return nil, err
			}
			layers["resume.setup_s"] = since(t)
			warm.Close()
		}
		t = time.Now()
		rid := tr.reserve()
		m, rerr := checkpoint.Read(ckptDir)
		if rerr != nil {
			return nil, rerr
		}
		layers["resume.read_s"] = since(t)
		tr.add(rid, "checkpoint.read", t, time.Now())
		if s, err = core.ResumeStudy(cfg, ckptDir, m); err != nil {
			return nil, err
		}
		out.ResumeS = since(t)
		tr.record(rid, root, "resume", 0, t, time.Now())
		leg = tr.reserve()
		tr.beginLeg(leg)
		t = time.Now()
		err = s.Run(ctx)
		out.CollectS += since(t)
		tr.record(leg, root, "run", 0, t, time.Now())
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	defer s.Close()
	var spill store.SpillStats
	if traced {
		spill = s.Store.SpillStats()
	}

	t = time.Now()
	an := tr.reserve()
	ds, digest := analyze(s, seed, tr, an)
	out.AnalyzeS = since(t)
	tr.record(an, root, "analyze", 0, t, time.Now())
	out.StudyS = since(t0)
	tr.record(root, -1, "study", 0, t0, time.Now())
	out.AllocMB = float64(heapAllocBytes()-allocs0) / 1e6
	out.PeakRSSMB = float64(prof.PeakRSSBytes()) / 1e6

	// Everything below is outside the timed interval.
	out.Output = facts(ds, digest.sum)
	out.Output.Empty = digest.empty
	cs, ms, js := s.CollectorStats(), s.MonitorStats(), s.JoinStats()
	queries := int64(w.days * 24 * len(urlpat.TrackTerms()))
	out.Attempted = int64(ms.Probes) + int64(js.Attempted) + queries
	out.Deferred = int64(ms.Deferred) + int64(js.Deferred) + int64(cs.SearchDeferred)
	if w.durable {
		du, err := diskUsage(ckptDir)
		if err != nil {
			return nil, err
		}
		out.DiskMB = float64(du.total) / 1e6
		sum, err := datasetDigest(s.Store, filepath.Join(dir, "dataset"))
		if err != nil {
			return nil, err
		}
		out.Output.DatasetDigest = sum
		if traced {
			m, err := checkpoint.Read(ckptDir)
			if err != nil {
				return nil, err
			}
			layers["ckpt.log_mb"] = float64(du.logs) / 1e6
			layers["ckpt.manifest_kb"] = float64(du.manifest) / 1e3
			layers["ckpt.boundaries"] = float64(m.Seq)
			retryLayers(layers, m.Policies)
		}
	}
	if traced {
		gc1 := prof.TakeSample()
		layers["gc.cycles"] = float64(gc1.GCCycles - gc0.GCCycles)
		layers["gc.pause_ms"] = float64((gc1.GCPauseTotal - gc0.GCPauseTotal).Microseconds()) / 1e3
		collectLayers(layers, tr, s, ds, spill, out)
		for _, b := range s.BreakerStats() {
			layers["breaker.opens"] += float64(b.Opens)
		}
		out.Layers = layers
		out.Spans = tr.spans
	}
	return out, nil
}

// runWorld times simworld.New alone, as core.NewStudy calls it, so world
// generation and service wiring can be told apart.
func runWorld(w workload) *studyOut {
	t := time.Now()
	simworld.New(w.world())
	return &studyOut{SetupS: since(t)}
}

// runSetup times core.NewStudy alone, for the set-up samples.
func runSetup(w workload, seed uint64, dir string) (*studyOut, error) {
	cfg := w.config(seed, filepath.Join(dir, "ckpt"))
	t := time.Now()
	s, err := core.NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	out := &studyOut{SetupS: since(t)}
	s.Close()
	return out, nil
}

// renders is the analysis' output digest plus the artifacts that came out
// empty.
type renders struct {
	sum   string
	empty []string
}

// analyze snapshots the dataset and derives every experiment cold, then
// the nine figures' CSV and SVG, all in memory. The first figure call
// runs report.Aggregate into the dataset's shared cache, so that span is
// the aggregation pass.
func analyze(s *core.Study, seed uint64, tr *tracer, parent int) (report.Dataset, renders) {
	h := sha256.New()
	var empty []string
	emit := func(id, body string) {
		if strings.TrimSpace(body) == "" {
			empty = append(empty, id)
		}
		fmt.Fprintf(h, "%s\x00%d\x00%s", id, len(body), body)
	}

	t := time.Now()
	ds := s.Dataset()
	tr.add(parent, "snapshot", t, time.Now())

	t = time.Now()
	report.Figure(ds, "fig1")
	tr.add(parent, "aggregate", t, time.Now())

	t = time.Now()
	for _, id := range experimentIDs {
		if id != "table3" {
			emit(id, renderExperiment(ds, seed, id))
		}
	}
	tr.add(parent, "render", t, time.Now())

	t = time.Now()
	emit("table3", renderExperiment(ds, seed, "table3"))
	tr.add(parent, "table3", t, time.Now())

	t = time.Now()
	var buf bytes.Buffer
	for _, id := range report.FigureIDs() {
		f, _ := report.Figure(ds, id)
		buf.Reset()
		if err := f.WriteCSV(&buf); err != nil {
			emit(id+".csv", "")
			continue
		}
		emit(id+".csv", buf.String())
		emit(id+".svg", f.SVG())
	}
	tr.add(parent, "export", t, time.Now())
	return ds, renders{sum: hex.EncodeToString(h.Sum(nil)), empty: empty}
}

// facts gathers what the output check reads from a finished dataset.
func facts(ds report.Dataset, renderDigest string) output {
	o := output{RenderDigest: renderDigest}
	list := ds.Store.Groups()
	for i, n := 0, list.Len(); i < n; i++ {
		g := list.At(i)
		o.Outcomes.Discovered++
		obs := list.Obs(i)
		switch {
		case g.Deferred:
			o.Outcomes.Deferred++
		case obs.Len() > 0:
			if last, _ := obs.Last(); last.Alive {
				o.Outcomes.Alive++
			} else {
				o.Outcomes.Revoked++
			}
		default:
			o.Outcomes.Lost++
		}
	}
	t2 := report.Table2(ds)
	for _, r := range t2.Rows {
		o.Table2 = append(o.Table2, table2Row{
			Platform: r.Platform.String(), Tweets: r.Tweets, GroupURLs: r.GroupURLs,
		})
	}
	o.Messages = t2.Total.Messages
	return o
}

// collectLayers fills the per-layer metrics read from spans and counters.
func collectLayers(l map[string]float64, tr *tracer, s *core.Study, ds report.Dataset, spill store.SpillStats, out *studyOut) {
	hours := tr.durations("search-")
	l["search.hour_ms.p50"] = quantile(hours, 0.50) * 1e3
	l["search.hour_ms.p95"] = quantile(hours, 0.95) * 1e3
	l["search.total_s"] = tr.total("search-")
	cs := s.CollectorStats()
	l["search.tweets_returned"] = float64(cs.SearchTweets)
	l["search.rate_limit_hits"] = float64(cs.RateLimitHits)
	l["search.deferred"] = float64(cs.SearchDeferred)
	l["stream.drain_s"] = tr.total("drain")
	l["stream.tweets"] = float64(cs.StreamTweets)
	tweets := ds.Tweets().Len()
	if returned := cs.SearchTweets + cs.StreamTweets; returned > 0 {
		l["collect.useful_frac"] = float64(tweets) / float64(returned)
	}

	ms := s.MonitorStats()
	l["monitor.sweep_ms.p50"] = quantile(tr.durations("monitor"), 0.50) * 1e3
	l["monitor.total_s"] = tr.total("monitor")
	l["monitor.probes"] = float64(ms.Probes)
	if l["monitor.total_s"] > 0 {
		l["monitor.probes_per_s"] = float64(ms.Probes) / l["monitor.total_s"]
	}
	l["monitor.alive_probes"] = float64(ms.AliveProbes)
	l["monitor.revoked_probes"] = float64(ms.RevokedProbes)
	l["monitor.errors"] = float64(ms.Errors)
	l["monitor.deferred"] = float64(ms.Deferred)

	js := s.JoinStats()
	l["join.select_s"] = tr.total("join")
	l["join.collect_s"] = tr.total("done")
	l["join.attempted"] = float64(js.Attempted)
	l["join.joined"] = float64(js.Joined)
	l["join.dead_invites"] = float64(js.DeadInvites)
	l["join.flood_waits"] = float64(js.FloodWaits)
	l["join.deferred"] = float64(js.Deferred)
	l["join.messages_read"] = float64(js.MessagesRead)
	if l["join.collect_s"] > 0 {
		l["join.messages_per_s"] = float64(js.MessagesRead) / l["join.collect_s"]
	}

	l["store.tweets"] = float64(tweets)
	l["store.control"] = float64(ds.Control().Len())
	groups := ds.Groups()
	l["store.groups"] = float64(groups.Len())
	obs := 0
	for i, n := 0, groups.Len(); i < n; i++ {
		obs += groups.Obs(i).Len()
	}
	l["store.observations"] = float64(obs)
	l["store.messages"] = float64(ds.Messages().Len())
	l["store.users"] = float64(len(ds.Users()))
	l["store.live_heap_mb"] = float64(spill.SpillableHeapBytes+spill.ResidentHeapBytes) / 1e6
	l["store.snapshot_s"] = tr.total("snapshot")
	l["spill.seg_mb"] = float64(spill.SegBytes) / 1e6
	l["spill.seg_files"] = float64(spill.Segments)
	if out.ResumeS > 0 {
		l["resume.replay_s"] = out.ResumeS - l["resume.read_s"] - l["resume.setup_s"]
		delete(l, "resume.setup_s")
	}

	l["report.aggregate_s"] = tr.total("aggregate")
	l["report.render_s"] = tr.total("render")
	l["plot.export_s"] = tr.total("export")
	l["lda.table3_s"] = tr.total("table3")

	for _, p := range s.ProfilePhases() {
		mb := float64(p.AllocBytes) / 1e6
		switch p.Phase {
		case "search":
			l["search.alloc_mb"] = mb
		case "stream":
			l["stream.alloc_mb"] = mb
		case "monitor":
			l["monitor.alloc_mb"] = mb
		case "collect":
			l["join.collect_alloc_mb"] = mb
		}
	}
}

// retryLayers sums the retry-policy counters of every client, as the
// final manifest records them.
func retryLayers(l map[string]float64, policies map[string]map[string]int64) {
	var attempts, retries int64
	for _, p := range policies {
		attempts += p["attempts"]
		retries += p["retries"]
		l["retry.throttles"] += float64(p["throttles"])
		l["retry.exhausted"] += float64(p["exhausted"])
	}
	l["retry.attempts"] = float64(attempts)
	l["retry.retries"] = float64(retries)
	if attempts > 0 {
		l["retry.useful_frac"] = float64(attempts-retries) / float64(attempts)
	}
}

// usage is a checkpoint directory's size split into its parts.
type usage struct{ total, logs, manifest int64 }

func diskUsage(dir string) (usage, error) {
	var u usage
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		u.total += info.Size()
		switch {
		case filepath.Dir(path) != dir:
		case d.Name() == checkpoint.ManifestFile:
			u.manifest += info.Size()
		default:
			u.logs += info.Size()
		}
		return nil
	})
	return u, err
}

// datasetDigest saves the dataset as JSONL under dir and hashes the files
// in name order.
func datasetDigest(st *store.Store, dir string) (string, error) {
	if err := st.Save(dir); err != nil {
		return "", err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.Base(name), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), os.RemoveAll(dir)
}
