// Package monitor implements the daily metadata crawler of Section 3.2:
// every discovered group URL is probed once per day — WhatsApp via its
// landing page, Telegram via its web preview, Discord via the public invite
// endpoint — recording title, member counts, online counts, creator
// details, and alive/revoked status. Probing of a URL starts at its
// discovery and stops once it is observed revoked.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/platform/discord"
	"msgscope/internal/platform/telegram"
	"msgscope/internal/platform/whatsapp"
	"msgscope/internal/store"
)

// Stats counts monitoring events.
type Stats struct {
	Probes        int
	AliveProbes   int
	RevokedProbes int
	Errors        int
	// Deferred counts probes that exhausted their retry budget; the group
	// stays queued and is probed again on the next sweep.
	Deferred int
}

// counters is the lock-free mirror of Stats; probe workers bump them
// without touching the monitor mutex, which now guards only the dead set.
type counters struct {
	probes        atomic.Int64
	aliveProbes   atomic.Int64
	revokedProbes atomic.Int64
	errors        atomic.Int64
	deferred      atomic.Int64
}

// Monitor drives the daily probes.
type Monitor struct {
	Store *store.Store
	WA    *whatsapp.Client
	TG    *telegram.Client
	DC    *discord.Client
	// Workers is the probe parallelism (the daily sweep touches every
	// live URL).
	Workers int

	mu    sync.Mutex
	dead  map[string]bool // platform/code -> observed revoked
	stats counters
}

// New returns a Monitor writing observations into st.
func New(st *store.Store, wa *whatsapp.Client, tg *telegram.Client, dc *discord.Client) *Monitor {
	return &Monitor{Store: st, WA: wa, TG: tg, DC: dc, Workers: 16, dead: map[string]bool{}}
}

// DailySweep probes every discovered, not-yet-revoked group URL once.
func (m *Monitor) DailySweep(ctx context.Context, now time.Time) error {
	groups := m.Store.Groups()
	type job struct {
		p    platform.Platform
		code string
	}
	var jobs []job
	m.mu.Lock()
	for i := 0; i < groups.Len(); i++ {
		// Key, not At: the sweep may overlap ingest, which rewrites the
		// other columns of a row.
		p, code := groups.Key(i)
		if !m.dead[p.String()+"/"+code] {
			jobs = append(jobs, job{p, code})
		}
	}
	m.mu.Unlock()

	workers := m.Workers
	if workers < 1 {
		workers = 1
	}
	// Workers take contiguous per-platform batches, not single groups: a
	// probe against the in-process services is cheap enough that an
	// unbuffered per-group handoff (channel rendezvous plus scheduler
	// wakeup per probe) used to make the parallel sweep slower than the
	// serial one. Batches amortize that handoff and keep each worker on
	// one platform's client for a whole slice. See DESIGN.md §11 for the
	// worker-count sensitivity.
	batch := len(jobs) / (4 * workers)
	if batch < 8 {
		batch = 8
	}
	ch := make(chan []job, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A batch's observations are ingested together, under one
			// acquisition of the store's group lock.
			var codes []string
			var obs []store.Observation
			for js := range ch {
				codes, obs = codes[:0], obs[:0]
				for _, j := range js {
					o, err := m.probe(ctx, j.p, j.code, now)
					if err != nil {
						// A failed probe — even a systematic outage — must not
						// abort the sweep: the group is marked deferred, has no
						// observation today, and is probed again on the next
						// sweep. Nothing is silently dropped.
						m.stats.deferred.Add(1)
						m.Store.MarkDeferred(j.p, j.code, "monitor")
						continue
					}
					codes, obs = append(codes, j.code), append(obs, o)
				}
				m.Store.AddObservationBatch(js[0].p, codes, obs)
			}
		}()
	}
	// Store.Groups is sorted by platform then code, so slicing at platform
	// changes keeps every batch single-platform.
	for start := 0; start < len(jobs); {
		end := start + batch
		if end > len(jobs) {
			end = len(jobs)
		}
		for e := start + 1; e < end; e++ {
			if jobs[e].p != jobs[start].p {
				end = e
				break
			}
		}
		ch <- jobs[start:end]
		start = end
	}
	close(ch)
	wg.Wait()
	return nil
}

// probe performs one platform-specific metadata fetch and returns the
// observation for the caller to ingest.
func (m *Monitor) probe(ctx context.Context, p platform.Platform, code string, now time.Time) (store.Observation, error) {
	var obs store.Observation
	obs.At = now
	var err error
	switch p {
	case platform.WhatsApp:
		err = m.probeWhatsApp(ctx, code, &obs)
	case platform.Telegram:
		err = m.probeTelegram(ctx, code, &obs)
	case platform.Discord:
		err = m.probeDiscord(ctx, code, &obs)
	default:
		return obs, fmt.Errorf("monitor: unknown platform %v", p)
	}
	m.stats.probes.Add(1)
	if err != nil {
		m.stats.errors.Add(1)
		return obs, err
	}
	if obs.Alive {
		m.stats.aliveProbes.Add(1)
	} else {
		m.stats.revokedProbes.Add(1)
		m.mu.Lock()
		m.dead[p.String()+"/"+code] = true
		m.mu.Unlock()
	}
	return obs, nil
}

func (m *Monitor) probeWhatsApp(ctx context.Context, code string, obs *store.Observation) error {
	l, err := m.WA.ProbeInvite(ctx, code)
	if errors.Is(err, whatsapp.ErrNotFound) {
		obs.Alive = false
		return nil
	}
	if err != nil {
		return err
	}
	obs.Alive = l.Alive
	if !l.Alive {
		return nil
	}
	obs.Title = l.Title
	obs.Members = l.Members
	obs.CreatorCountry = l.CreatorCountry
	if l.CreatorPhone != "" {
		// Only the hash is stored (ethics: Section 3.4); the creator is
		// also recorded as an observed user whose phone leaked.
		obs.CreatorPhoneH = store.HashPhone(l.CreatorPhone)
		obs.CreatorKey = obs.CreatorPhoneH
		m.Store.UpsertUser(store.UserRecord{
			Platform:  platform.WhatsApp,
			Key:       store.PhoneKey(l.CreatorPhone),
			PhoneHash: obs.CreatorPhoneH,
			Country:   l.CreatorCountry,
			Creator:   true,
		})
	}
	return nil
}

func (m *Monitor) probeTelegram(ctx context.Context, code string, obs *store.Observation) error {
	pv, err := m.TG.ProbePreview(ctx, code)
	if errors.Is(err, telegram.ErrNotFound) {
		obs.Alive = false
		return nil
	}
	if err != nil {
		return err
	}
	obs.Alive = pv.Alive
	if !pv.Alive {
		return nil
	}
	obs.Title = pv.Title
	obs.Members = pv.Members
	obs.Online = pv.Online
	obs.IsChannel = pv.IsChannel
	return nil
}

func (m *Monitor) probeDiscord(ctx context.Context, code string, obs *store.Observation) error {
	inv, err := m.DC.ProbeInvite(ctx, code)
	if errors.Is(err, discord.ErrUnknownInvite) {
		obs.Alive = false
		return nil
	}
	if err != nil {
		return err
	}
	obs.Alive = true
	obs.Title = inv.GuildName
	obs.Members = inv.Members
	obs.Online = inv.Online
	obs.CreatedAt = inv.CreatedAt
	obs.CreatorKey = inv.InviterID
	return nil
}

// StatsMap snapshots the counters under stable names for a checkpoint.
func (m *Monitor) StatsMap() map[string]int64 {
	return map[string]int64{
		"probes":         m.stats.probes.Load(),
		"alive_probes":   m.stats.aliveProbes.Load(),
		"revoked_probes": m.stats.revokedProbes.Load(),
		"errors":         m.stats.errors.Load(),
		"deferred":       m.stats.deferred.Load(),
	}
}

// Restore reinstates counters from a checkpoint and re-derives the dead
// set from the store: a group whose latest observation reported it revoked
// is never probed again. The set is derived, not checkpointed — the
// observation log is the durable record.
func (m *Monitor) Restore(stats map[string]int64) {
	m.stats.probes.Store(stats["probes"])
	m.stats.aliveProbes.Store(stats["alive_probes"])
	m.stats.revokedProbes.Store(stats["revoked_probes"])
	m.stats.errors.Store(stats["errors"])
	m.stats.deferred.Store(stats["deferred"])
	groups := m.Store.Groups()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < groups.Len(); i++ {
		if last, ok := groups.Obs(i).Last(); ok && !last.Alive {
			g := groups.At(i)
			m.dead[g.Platform.String()+"/"+g.Code] = true
		}
	}
}

// Stats returns a snapshot of the counters. They are monotonic atomics;
// between sweeps (the only places the driver reads them) the snapshot is
// exact.
func (m *Monitor) Stats() Stats {
	return Stats{
		Probes:        int(m.stats.probes.Load()),
		AliveProbes:   int(m.stats.aliveProbes.Load()),
		RevokedProbes: int(m.stats.revokedProbes.Load()),
		Errors:        int(m.stats.errors.Load()),
		Deferred:      int(m.stats.deferred.Load()),
	}
}
