package core

// Checkpoint-resume orchestration. Run persists a checkpoint at every
// pipeline boundary: the store's append-only record logs grow by exactly
// the records added since the previous boundary, and manifest.json is
// atomically replaced with the full cursor/counter state of every
// subsystem. ResumeStudy rebuilds a study from the manifest and continues
// Run from the recorded boundary; because every pipeline phase is a pure
// function of (seed, store state, cursors, clock), the resumed run's final
// output is byte-identical to an uninterrupted run's. See DESIGN.md §14.

import (
	"fmt"
	"time"

	"msgscope/internal/checkpoint"
	"msgscope/internal/retry"
	"msgscope/internal/twitter"
)

// hook invokes the configured StepHook, if any.
func (s *Study) hook(day int, step string) error {
	if s.Cfg.StepHook == nil {
		return nil
	}
	return s.Cfg.StepHook(day, step)
}

// checkpoint enforces the memory budget at the boundary (day, step), makes
// it durable — log deltas first, then the manifest naming their new
// offsets — and runs the step hook. A crash between the two leaves the
// previous manifest pointing at a valid log prefix; the extra appended
// records are truncated away on resume. Spill segments play no part: they
// are per-run scratch, and a resume re-seals from the logs.
func (s *Study) checkpoint(day int, step string) error {
	if err := s.Store.SpillCheck(); err != nil {
		return fmt.Errorf("core: spill check %s day %d: %w", step, day, err)
	}
	if s.ckpt != nil {
		logs, err := s.ckpt.Checkpoint()
		if err != nil {
			return fmt.Errorf("core: checkpoint %s day %d: %w", step, day, err)
		}
		if err := checkpoint.Write(s.Cfg.CheckpointDir, s.manifest(day, step, logs)); err != nil {
			return fmt.Errorf("core: checkpoint %s day %d: %w", step, day, err)
		}
	}
	return s.hook(day, step)
}

// manifest assembles the full resume state at a boundary.
func (s *Study) manifest(day int, step string, logs map[string]checkpoint.LogState) *checkpoint.Manifest {
	s.ckSeq++
	tw := s.TwitterSvc.RequestState()
	m := &checkpoint.Manifest{
		Version:               checkpoint.Version,
		OptionsHash:           s.Cfg.OptionsHash,
		Options:               s.Cfg.OptionsPayload,
		Seq:                   s.ckSeq,
		Day:                   day,
		Step:                  step,
		ClockUnixNano:         s.Clock.Now().UnixNano(),
		PublishedUpToUnixNano: s.pubHorizon.UnixNano(),
		Logs:                  logs,
		Collector:             s.collector.State(),
		MonitorStats:          s.monitor.StatsMap(),
		Joiner:                s.joiner.State(),
		Twitter: checkpoint.TwitterState{
			RateTokens:           tw.RateTokens,
			RateLastFillUnixNano: tw.RateLastFill.UnixNano(),
			ReqSeq:               tw.ReqSeq,
		},
		Accounts: map[string][]checkpoint.AccountState{
			"whatsapp": s.waSvc.AccountStates(),
			"telegram": s.tgSvc.AccountStates(),
			"discord":  s.dcSvc.AccountStates(),
		},
		FaultEpoch:  s.injector.Epoch(),
		FaultCounts: s.injector.CountsMap(),
		Breakers:    map[string]map[string]int64{},
		Policies:    map[string]map[string]int64{},
	}
	for host, b := range s.breakers {
		m.Breakers[host] = b.CountersMap()
	}
	for name, p := range s.policies() {
		m.Policies[name] = p.StatsMap()
	}
	return m
}

// policies names every retry policy in the pipeline. The counters feed
// reported statistics (the join phase's FloodWaits sums its clients'
// throttle counts), so they are carried across a resume like any other
// counter.
func (s *Study) policies() map[string]*retry.Policy {
	m := map[string]*retry.Policy{
		"collector":        s.collector.Client.Retry,
		"monitor-whatsapp": s.monitor.WA.Retry,
		"monitor-telegram": s.monitor.TG.Retry,
		"monitor-discord":  s.monitor.DC.Retry,
		"join-telegram":    s.joiner.TG.Retry,
		"join-discord":     s.joiner.DC.Retry,
	}
	for i, c := range s.joiner.WAClients {
		m[fmt.Sprintf("join-whatsapp-%d", i)] = c.Retry
	}
	return m
}

// ResumeStudy rebuilds a study from the checkpoint in dir and prepares it
// to continue from the manifest's boundary: NewStudy wires fresh services
// over the same deterministic world, then the store is replayed from the
// record logs and every subsystem's cursors and counters are restored.
// Call Run to continue the study; cfg must be the configuration of the
// checkpointed run (callers rebuild it from the manifest's Options
// payload, validating OptionsHash).
func ResumeStudy(cfg Config, dir string, m *checkpoint.Manifest) (*Study, error) {
	s, err := NewStudy(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restore(dir, m); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// restore replays the checkpoint into the freshly built study.
func (s *Study) restore(dir string, m *checkpoint.Manifest) error {
	if s.Cfg.OptionsHash != m.OptionsHash {
		return fmt.Errorf("%w: manifest %q, configuration %q",
			checkpoint.ErrOptionsMismatch, m.OptionsHash, s.Cfg.OptionsHash)
	}
	if m.Day < 0 || m.Day >= s.Cfg.Days {
		return fmt.Errorf("%w: day %d outside the %d-day study",
			checkpoint.ErrCorrupt, m.Day, s.Cfg.Days)
	}

	// Publish — without stream fan-out, the streams are not open yet — up
	// to the horizon the interrupted run had already delivered, then move
	// the clock to the boundary (the join phase can leave it ahead of the
	// publish horizon). When Run reopens the streams they receive exactly
	// the tweets published after this horizon, as the original ones did.
	pub := time.Unix(0, m.PublishedUpToUnixNano).UTC()
	s.Clock.AdvanceTo(pub)
	s.TwitterSvc.PublishUpTo(pub)
	s.Clock.AdvanceTo(time.Unix(0, m.ClockUnixNano).UTC())
	s.pubHorizon = pub
	s.TwitterSvc.RestoreRequestState(twitter.RequestState{
		RateTokens:   m.Twitter.RateTokens,
		RateLastFill: time.Unix(0, m.Twitter.RateLastFillUnixNano).UTC(),
		ReqSeq:       m.Twitter.ReqSeq,
	})

	// Replay the record logs into the store (truncating any post-crash
	// tail; a budgeted store re-seals as it goes), then reopen the
	// checkpoint writer so its incremental marks baseline against the
	// replayed state.
	if err := s.Store.LoadCheckpoint(dir, m.Logs); err != nil {
		return err
	}
	w, err := s.Store.ResumeCheckpointWriter(dir, m.Logs)
	if err != nil {
		return err
	}
	s.ckpt = w

	s.collector.Restore(m.Collector)
	s.monitor.Restore(m.MonitorStats)
	if err := s.joiner.Restore(m.Joiner); err != nil {
		return err
	}
	s.injector.Restore(m.FaultEpoch, m.FaultCounts)
	for host, b := range s.breakers {
		b.RestoreCounters(m.Breakers[host])
	}
	for name, p := range s.policies() {
		p.RestoreStats(m.Policies[name])
	}
	s.waSvc.RestoreAccounts(m.Accounts["whatsapp"])
	s.tgSvc.RestoreAccounts(m.Accounts["telegram"])
	s.dcSvc.RestoreAccounts(m.Accounts["discord"])

	s.ckSeq = m.Seq
	s.resumeDay, s.resumeStep = m.Day, m.Step
	return nil
}
