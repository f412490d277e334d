// Package core orchestrates the full 38-day methodology end-to-end over
// HTTP: it serves the simulated Twitter and messaging-platform services
// in process (httpx.Serve), drives the virtual clock hour by hour,
// runs hourly searches and continuous streams (Section 3.1), the daily
// metadata sweeps (Section 3.2), the join phase with message collection
// (Section 3.3), and hands the resulting dataset to the report package.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"msgscope/internal/collect"
	"msgscope/internal/faults"
	"msgscope/internal/httpx"
	"msgscope/internal/join"
	"msgscope/internal/monitor"
	"msgscope/internal/platform/discord"
	"msgscope/internal/platform/telegram"
	"msgscope/internal/platform/whatsapp"
	"msgscope/internal/prof"
	"msgscope/internal/report"
	"msgscope/internal/retry"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
	"msgscope/internal/social"
	"msgscope/internal/store"
	"msgscope/internal/twitter"
)

// Config parameterizes one study run.
type Config struct {
	// Seed drives the entire simulation deterministically.
	Seed uint64
	// Scale multiplies workload volumes (1.0 = paper scale). The default
	// join targets (paper: 416/100/100) scale with it too unless Join is
	// set explicitly.
	Scale float64
	// Days is the collection window (default 38).
	Days int
	// JoinDay is the study day on which the join phase runs (default 2;
	// groups must first be discovered).
	JoinDay int
	// Join overrides the per-platform join targets; zero means scaled
	// paper defaults.
	Join join.Targets
	// SearchEveryHours is the Search API polling cadence (paper: 1).
	SearchEveryHours int
	// MaxMessagesPerGroup bounds per-group history collection
	// (0 = unlimited).
	MaxMessagesPerGroup int
	// GenerateMessageText makes in-group messages carry bodies.
	GenerateMessageText bool
	// Twitter tunes the simulated API's imperfections; zero value means
	// twitter.DefaultServiceConfig.
	Twitter *twitter.ServiceConfig
	// World overrides the full world configuration; nil means the
	// paper-calibrated simworld.DefaultConfig(Seed, Scale).
	World *simworld.Config
	// SearchWorkers bounds the hourly Search API fan-out (0 = one worker
	// per tracked URL pattern, 1 = serial). Results are ingested in fixed
	// pattern order either way, so the collected dataset is identical.
	SearchWorkers int
	// CollectWorkers bounds the join-phase per-group message collection
	// fan-out (0 = default bound, 1 = serial). Collection is pinned to a
	// frozen horizon either way, so the collected dataset is identical.
	CollectWorkers int
	// MonitorEveryDays sets the metadata probe cadence in days (default
	// 1, i.e. daily, as in the paper). The probe-cadence ablation sweeps
	// this: sparser probing inflates the dead-at-first-observation share.
	MonitorEveryDays int
	// JoinTitleKeywords restricts the join sample to groups whose
	// monitored title matches a keyword — the paper's future-work focused
	// collection (e.g. only COVID or politics groups).
	JoinTitleKeywords []string
	// EnableSocialDiscovery turns on the future-work second discovery
	// source: a secondary social network's public feed is polled hourly
	// alongside the Twitter APIs.
	EnableSocialDiscovery bool
	// Faults, when non-nil, injects deterministic failures (500s, aborted
	// connections, malformed bodies, rate-limit bursts, outage windows)
	// into every simulated service. Fault decisions are pure functions of
	// (plan seed, phase epoch, request key, attempt), so a faulted run is
	// as reproducible as a clean one.
	Faults *faults.Plan
	// Prof, when non-nil, records per-phase allocation deltas: the study
	// calls Prof.Capture at each phase boundary. Nil (the default) adds
	// zero overhead to the pipeline.
	Prof *prof.Recorder
	// CheckpointDir, when non-empty, persists a resumable checkpoint there
	// at every pipeline boundary: append-only record logs plus an
	// atomically replaced manifest. ResumeStudy picks a killed run back up
	// from the last durable boundary with byte-identical final output.
	CheckpointDir string
	// MemBudget, when positive, caps the spillable column families' live
	// heap bytes: once the measured total crosses it, the store seals older
	// rows into immutable mmap-backed segment files and drops the heap
	// copies (DESIGN.md §16). The final output is byte-identical with or
	// without a budget — only the storage tier of cold rows changes.
	MemBudget int64
	// SpillDir overrides where segment files live. Empty means
	// CheckpointDir/segments for a checkpointed run, else a fresh temp
	// directory. Segments are per-run scratch: every start clears them.
	SpillDir string
	// OptionsHash fingerprints the caller's determinism-relevant options;
	// it is stored in the manifest and must match on resume.
	OptionsHash string
	// OptionsPayload is the caller's serialized options, stored verbatim
	// in the manifest (opaque to core) so a resume needs no other input.
	OptionsPayload json.RawMessage
	// StepHook, when set, runs after every completed pipeline step —
	// each hourly search ("search-NN") and each checkpointed boundary
	// ("init", "drain", "monitor", "join", "done"). A non-nil return
	// aborts the run with that error; the crash-kill tests return
	// ErrHalted to stop a study at an exact step.
	StepHook func(day int, step string) error
}

// ErrHalted is the conventional error a StepHook returns to stop a run at
// a chosen step; Run surfaces it unchanged.
var ErrHalted = errors.New("core: halted by step hook")

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	if c.Days <= 0 {
		c.Days = 38
	}
	if c.JoinDay <= 0 {
		c.JoinDay = 2
	}
	if c.SearchEveryHours <= 0 {
		c.SearchEveryHours = 1
	}
	if c.Join == (join.Targets{}) {
		c.Join = join.Targets{
			WhatsApp: scaleTarget(416, c.Scale),
			Telegram: scaleTarget(100, c.Scale),
			Discord:  scaleTarget(100, c.Scale),
		}
	}
	if c.MonitorEveryDays <= 0 {
		c.MonitorEveryDays = 1
	}
	return c
}

func scaleTarget(full int, scale float64) int {
	n := int(math.Round(float64(full) * scale))
	if n < 3 {
		n = 3
	}
	return n
}

// spillDir resolves where a budgeted run's segment files live: the explicit
// override, a directory under the checkpoint directory, or a fresh temp
// directory for an uncheckpointed run.
func spillDir(cfg Config) (string, error) {
	if cfg.SpillDir != "" {
		return cfg.SpillDir, nil
	}
	if cfg.CheckpointDir != "" {
		return filepath.Join(cfg.CheckpointDir, "segments"), nil
	}
	return os.MkdirTemp("", "msgscope-spill-")
}

// Study is one fully wired simulation run.
type Study struct {
	Cfg   Config
	World *simworld.World
	Clock *simclock.Sim
	Store *store.Store

	TwitterSvc *twitter.Service

	stops     []func() // one per served service, from httpx.Serve
	collector *collect.Collector
	monitor   *monitor.Monitor
	joiner    *join.Joiner

	// The messaging services, kept for checkpointing their account state.
	waSvc *whatsapp.Service
	tgSvc *telegram.Service
	dcSvc *discord.Service

	// Checkpointing state (all zero when Cfg.CheckpointDir is empty).
	// pubHorizon is the time through which tweets have been published and
	// fanned out to the streams; resumeDay/resumeStep locate the boundary
	// a restored study continues from.
	ckpt       *store.CheckpointWriter
	ckSeq      int
	pubHorizon time.Time
	resumeDay  int
	resumeStep string

	// injector is shared by all four services (nil when Cfg.Faults is nil);
	// breakers holds one circuit breaker per platform host, shared by every
	// client of that host. Both are reset at phase boundaries so each
	// pipeline phase starts from the same state regardless of how the
	// previous phase's requests interleaved.
	injector *faults.Injector
	breakers map[string]*retry.Breaker

	ran      bool
	snapOnce sync.Once
	snap     *store.Snapshot
	agg      report.AggCache
}

// NewStudy builds the world, serves the services in process, and
// wires the pipeline. Call Run, then Dataset; Close when done.
func NewStudy(cfg Config) (*Study, error) {
	cfg = cfg.withDefaults()
	wcfg := simworld.DefaultConfig(cfg.Seed, cfg.Scale)
	if cfg.World != nil {
		wcfg = *cfg.World
	}
	wcfg.Days = cfg.Days
	wcfg.GenerateMessageText = cfg.GenerateMessageText

	world := simworld.New(wcfg)
	clock := simclock.New(wcfg.Start)
	st := store.New()
	if cfg.MemBudget > 0 {
		dir, err := spillDir(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: resolving spill dir: %w", err)
		}
		if err := st.EnableSpill(store.SpillConfig{Dir: dir, Budget: cfg.MemBudget}); err != nil {
			return nil, fmt.Errorf("core: enabling spill: %w", err)
		}
	}

	tcfg := twitter.DefaultServiceConfig()
	if cfg.Twitter != nil {
		tcfg = *cfg.Twitter
	}
	twSvc := twitter.NewService(world, clock, tcfg)
	waSvc := whatsapp.NewService(world, clock)
	tgSvc := telegram.NewService(world, clock, telegram.DefaultServiceConfig())
	dcSvc := discord.NewService(world, clock, discord.DefaultServiceConfig())

	injector := faults.NewInjector(cfg.Faults, clock)
	twSvc.Faults = injector
	waSvc.Faults = injector
	tgSvc.Faults = injector
	dcSvc.Faults = injector

	s := &Study{
		Cfg:        cfg,
		World:      world,
		Clock:      clock,
		Store:      st,
		TwitterSvc: twSvc,
		waSvc:      waSvc,
		tgSvc:      tgSvc,
		dcSvc:      dcSvc,
		pubHorizon: clock.Now(),
		injector:   injector,
		breakers: map[string]*retry.Breaker{
			"twitter":  retry.NewBreaker(5, 30*time.Second),
			"whatsapp": retry.NewBreaker(5, 30*time.Second),
			"telegram": retry.NewBreaker(5, 30*time.Second),
			"discord":  retry.NewBreaker(5, 30*time.Second),
		},
	}
	twURL := s.serve(twSvc.Handler())
	waURL := s.serve(waSvc.Handler())
	tgURL := s.serve(tgSvc.Handler())
	dcURL := s.serve(dcSvc.Handler())

	twClient := twitter.NewClient(twURL)
	twClient.Retry.Breaker = s.breakers["twitter"]
	s.collector = collect.New(st, twClient)
	s.collector.SearchWorkers = cfg.SearchWorkers
	if cfg.EnableSocialDiscovery {
		s.collector.Social = social.NewClient(s.serve(social.NewService(world, clock).Handler()))
	}

	waMonitorClient := whatsapp.NewClient(waURL, "monitor")
	tgMonitorClient := telegram.NewClient(tgURL, "monitor")
	dcMonitorClient := discord.NewClient(dcURL, "monitor")
	// The monitor never advances the virtual clock, so a flood burst that
	// spans "now" would never end for it: cap its rate-limit waits low and
	// let the deferral path re-queue the group for the next sweep.
	for host, p := range map[string]*retry.Policy{
		"whatsapp": waMonitorClient.Retry,
		"telegram": tgMonitorClient.Retry,
		"discord":  dcMonitorClient.Retry,
	} {
		p.MaxWaits = 3
		p.Breaker = s.breakers[host]
	}
	s.monitor = monitor.New(st, waMonitorClient, tgMonitorClient, dcMonitorClient)

	// WhatsApp join accounts: one per ~240 groups ("phones and SIM
	// cards").
	nAccounts := cfg.Join.WhatsApp/240 + 1
	waClients := make([]*whatsapp.Client, nAccounts)
	for i := range waClients {
		waClients[i] = whatsapp.NewClient(waURL, fmt.Sprintf("join-%d", i))
		waClients[i].Retry.Breaker = s.breakers["whatsapp"]
	}
	tgJoinClient := telegram.NewClient(tgURL, "join-tg")
	tgJoinClient.Retry.Breaker = s.breakers["telegram"]
	dcJoinClient := discord.NewClient(dcURL, "join-dc")
	dcJoinClient.Retry.Breaker = s.breakers["discord"]
	s.joiner = join.New(st, waClients, tgJoinClient, dcJoinClient, clock, cfg.Seed)
	s.joiner.MaxMessagesPerGroup = cfg.MaxMessagesPerGroup
	s.joiner.TitleKeywords = cfg.JoinTitleKeywords
	s.joiner.Workers = cfg.CollectWorkers
	return s, nil
}

// Close shuts the services down.
func (s *Study) Close() {
	if s.ckpt != nil {
		s.ckpt.Close()
		s.ckpt = nil
	}
	if s.collector != nil {
		s.collector.Close()
	}
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil
}

// serve registers h in process and returns its base URL; Close stops it.
func (s *Study) serve(h http.Handler) string {
	url, stop := httpx.Serve(h)
	s.stops = append(s.stops, stop)
	return url
}

// Run executes the whole study: discovery, daily monitoring, joining, and
// message collection. On a study restored by ResumeStudy, Run continues
// from the checkpointed boundary instead of day zero.
func (s *Study) Run(ctx context.Context) error {
	if s.ran {
		return fmt.Errorf("core: study already ran")
	}
	s.ran = true
	s.Cfg.Prof.Reset()
	if s.resumeStep == "done" {
		// The checkpoint covers the complete run: everything is already
		// replayed into the store, nothing is left to execute.
		return nil
	}
	if err := s.collector.Open(ctx); err != nil {
		return err
	}
	s.Cfg.Prof.Capture("setup")
	startDay, skip := 0, ""
	switch s.resumeStep {
	case "", "init":
		// Fresh run (or a resume from the pre-day-zero checkpoint): open the
		// checkpoint writer and make the empty state durable, so a kill at
		// any later point has a boundary to resume from.
		if s.resumeStep == "" && s.Cfg.CheckpointDir != "" {
			w, err := s.Store.OpenCheckpointWriter(s.Cfg.CheckpointDir)
			if err != nil {
				return fmt.Errorf("core: opening checkpoint: %w", err)
			}
			s.ckpt = w
			if err := s.checkpoint(0, "init"); err != nil {
				return err
			}
		}
	case "drain", "monitor":
		startDay, skip = s.resumeDay, s.resumeStep
	case "join":
		startDay = s.resumeDay + 1
	default:
		return fmt.Errorf("core: unknown resume step %q", s.resumeStep)
	}
	for day := startDay; day < s.Cfg.Days; day++ {
		if err := s.runDay(ctx, day, skip); err != nil {
			return fmt.Errorf("core: day %d: %w", day, err)
		}
		skip = ""
	}
	// Final message collection over the joined groups.
	s.phaseBoundary()
	if err := s.joiner.CollectMessages(ctx); err != nil {
		return err
	}
	s.Cfg.Prof.Capture("collect")
	return s.checkpoint(s.Cfg.Days-1, "done")
}

// phaseBoundary marks the start of a pipeline phase: the fault injector
// advances its epoch (so repeated request keys draw fresh fault decisions
// instead of failing forever) and every circuit breaker is force-closed,
// making each phase's starting state independent of how the previous
// phase's requests interleaved across workers.
func (s *Study) phaseBoundary() {
	s.injector.NextEpoch()
	for _, b := range s.breakers {
		b.Reset()
	}
}

// runDay executes one study day. resumeFrom names the last step of this
// day a checkpoint already covers ("" on the normal path): "drain" skips
// the hour loop and stream drain, "monitor" additionally skips the sweep —
// the replayed store and restored cursors stand in for the skipped work.
func (s *Study) runDay(ctx context.Context, day int, resumeFrom string) error {
	if resumeFrom == "" {
		for hour := 1; hour <= 24; hour++ {
			s.Clock.Advance(time.Hour)
			s.TwitterSvc.PublishUpTo(s.Clock.Now())
			s.pubHorizon = s.Clock.Now()
			if hour%s.Cfg.SearchEveryHours == 0 {
				s.phaseBoundary()
				if err := s.collector.HourlySearch(ctx); err != nil {
					return err
				}
				if err := s.collector.PollSocial(ctx); err != nil {
					return err
				}
				// Hourly budget check: waiting for the day boundary would
				// let a busy discovery day overshoot the budget by a full
				// day's ingest. Sealing never renumbers rows, so the live
				// streams keep appending unaffected.
				if err := s.Store.SpillCheck(); err != nil {
					return err
				}
				s.Cfg.Prof.Capture("search")
				if err := s.hook(day, fmt.Sprintf("search-%02d", hour)); err != nil {
					return err
				}
			}
		}
		if err := s.quiesceStreams(); err != nil {
			return err
		}
		s.collector.DrainStreams()
		s.Cfg.Prof.Capture("stream")
		if err := s.checkpoint(day, "drain"); err != nil {
			return err
		}
	}

	if resumeFrom != "monitor" && (day+1)%s.Cfg.MonitorEveryDays == 0 {
		s.phaseBoundary()
		if err := s.monitor.DailySweep(ctx, s.Clock.Now()); err != nil {
			return err
		}
		// Observation pruning: groups that ended dead more than two sweeps
		// ago will never grow their series again, so their chains can be
		// sealed eagerly instead of waiting for the budget to force it.
		if err := s.Store.PruneObservations(s.Clock.Now().Add(-2 * 24 * time.Hour)); err != nil {
			return err
		}
		s.Cfg.Prof.Capture("monitor")
		if err := s.checkpoint(day, "monitor"); err != nil {
			return err
		}
	}
	if day == s.Cfg.JoinDay {
		s.phaseBoundary()
		if err := s.joiner.SelectAndJoin(ctx, s.Cfg.Join); err != nil {
			return err
		}
		s.Cfg.Prof.Capture("join")
		if err := s.checkpoint(day, "join"); err != nil {
			return err
		}
	}
	return nil
}

// quiesceStreams waits (in wall time) until the streaming clients have
// consumed everything the service enqueued for them — the virtual clock
// advances in bursts, so the driver must let the real goroutines catch up
// before draining. It blocks on each stream's progress notification rather
// than polling: the stream posts a coalesced signal per consumed status, so
// the driver sleeps until there is something new to check.
func (s *Study) quiesceStreams() error {
	for _, st := range []*twitter.Stream{s.collector.FilterStream(), s.collector.SampleStream()} {
		if st == nil {
			continue
		}
		// Each stream gets its own deadline: with one shared timer a slow
		// first stream would eat the whole budget and leave the second
		// stream with an already-fired (and drained) timer.
		timer := time.NewTimer(30 * time.Second)
		for {
			if st.Received() >= s.TwitterSvc.QueuedFor(st.SubID()) {
				break
			}
			if err := st.Err(); err != nil {
				timer.Stop()
				return fmt.Errorf("core: stream error: %w", err)
			}
			select {
			case <-st.Progress():
				// Recheck the counters; the signal is coalesced.
			case <-st.Done():
				if err := st.Err(); err != nil {
					timer.Stop()
					return fmt.Errorf("core: stream error: %w", err)
				}
				// Recheck against a fresh queue count, not the one read
				// before blocking: deliveries racing the close would make a
				// stale count report a phantom shortfall.
				if queued := s.TwitterSvc.QueuedFor(st.SubID()); st.Received() < queued {
					timer.Stop()
					return fmt.Errorf("core: stream closed early: received %d of %d",
						st.Received(), queued)
				}
			case <-timer.C:
				// Same fresh recheck: the last delivery may have raced the
				// timer, in which case the stream is in fact caught up.
				if queued := s.TwitterSvc.QueuedFor(st.SubID()); st.Received() < queued {
					return fmt.Errorf("core: stream quiesce timeout: received %d of %d",
						st.Received(), queued)
				}
			}
		}
		timer.Stop()
	}
	return nil
}

// Dataset returns the collected dataset for the report package. After Run
// has completed, the store is frozen and the dataset carries a one-time
// snapshot with pre-sorted slices and per-platform/per-day indexes, so
// every experiment reads shared indexes instead of re-scanning the store.
func (s *Study) Dataset() report.Dataset {
	ds := report.Dataset{Store: s.Store, Start: s.World.Cfg.Start, Days: s.Cfg.Days, Prof: s.Cfg.Prof}
	if s.ran {
		s.snapOnce.Do(func() {
			s.snap = s.Store.Snapshot(ds.Start, ds.Days)
		})
		ds.Snap = s.snap
		// The frozen dataset also shares one figure/table aggregation
		// pass across every experiment (see report.Aggregate).
		ds.Agg = &s.agg
	}
	return ds
}

// ProfilePhases returns the per-phase allocation stats recorded during
// Run (nil unless Config.Prof was set). Window semantics: each phase's
// numbers cover everything since the previous capture, so the "search"
// window also includes the hourly clock advance and tweet publishing
// that precede it.
func (s *Study) ProfilePhases() []prof.PhaseStat { return s.Cfg.Prof.Phases() }

// ProfileStages returns the per-analysis-stage wall timings ("lda",
// "aggregate", "figures") recorded while experiments were computed from
// the dataset (nil unless Config.Prof was set).
func (s *Study) ProfileStages() []prof.StageStat { return s.Cfg.Prof.Stages() }

// CollectorStats exposes discovery counters.
func (s *Study) CollectorStats() collect.Stats { return s.collector.Stats() }

// MonitorStats exposes daily-sweep counters.
func (s *Study) MonitorStats() monitor.Stats { return s.monitor.Stats() }

// JoinStats exposes join-phase counters.
func (s *Study) JoinStats() join.Stats { return s.joiner.Stats() }

// FaultCounts exposes how many faults the injector served (zero value when
// no fault plan is configured). The counts are approximate across runs:
// Go's HTTP transport transparently re-sends a request whose reused
// connection died mid-flight (the timeout fault), and the re-sent request
// draws — and counts — the same fault again. Data outcomes are unaffected
// (the duplicate draw is identical), but the totals can differ between
// otherwise identical runs; don't assert exact values.
func (s *Study) FaultCounts() faults.Counts { return s.injector.Counts() }

// FaultEpoch exposes the injector's phase epoch (zero when no fault plan
// is configured). Unlike the raw counts it is exact: the epoch advances
// once per phase boundary, so an uninterrupted run and a resumed run must
// end on the same value.
func (s *Study) FaultEpoch() uint64 { return s.injector.Epoch() }

// BreakerStats reports circuit-breaker open/close transitions per platform
// host. Reset at phase boundaries does not zero these counters, so they
// reflect the whole run.
type BreakerStats struct {
	Opens  int64
	Closes int64
}

// BreakerStats returns per-host breaker transition counts, keyed by
// "twitter", "whatsapp", "telegram", "discord".
func (s *Study) BreakerStats() map[string]BreakerStats {
	out := make(map[string]BreakerStats, len(s.breakers))
	for host, b := range s.breakers {
		out[host] = BreakerStats{Opens: b.Opens(), Closes: b.Closes()}
	}
	return out
}
