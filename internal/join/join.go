// Package join implements Section 3.3: joining a uniform random sample of
// discovered groups and collecting in-group data, under each platform's
// real constraints — WhatsApp's per-account group caps (hence multiple
// accounts), message history only from the join time, Telegram's FLOOD_WAIT
// rate limits and hideable member lists, and Discord's 100-guild cap with
// full history since creation across every channel.
package join

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"

	"msgscope/internal/checkpoint"
	"msgscope/internal/ids"
	"msgscope/internal/platform"
	"msgscope/internal/platform/discord"
	"msgscope/internal/platform/telegram"
	"msgscope/internal/platform/whatsapp"
	"msgscope/internal/retry"
	"msgscope/internal/simclock"
	"msgscope/internal/store"
)

// Targets sets how many groups to join per platform (paper: 416 WhatsApp,
// 100 Telegram, 100 Discord).
type Targets struct {
	WhatsApp int
	Telegram int
	Discord  int
}

// Stats counts join-phase events.
type Stats struct {
	Attempted   int
	Joined      int
	DeadInvites int
	// FloodWaits counts rate-limit waits absorbed by the clients' retry
	// policies (FLOOD_WAITs, 429s) across the join and collect phases.
	// Unlike the other counters it depends on scheduling: concurrent
	// collection workers share the per-account flood budgets, so how many
	// requests hit a drained budget varies run to run (three identical
	// seed-42 runs counted 1167, 1171 and 1170) while the collected
	// dataset stays byte-identical. Do not compare it across runs.
	FloodWaits  int
	HiddenLists int
	// Deferred counts groups whose join or collection exhausted the retry
	// budget; they stay in the store marked deferred and are retried on the
	// next join round instead of being silently dropped.
	Deferred     int
	MessagesRead int
}

// counters is the lock-free mirror of Stats: MessagesRead is bumped from
// concurrent collection workers, so every field is an atomic and Stats()
// materializes a snapshot.
type counters struct {
	attempted    atomic.Int64
	joined       atomic.Int64
	deadInvites  atomic.Int64
	hiddenLists  atomic.Int64
	deferred     atomic.Int64
	messagesRead atomic.Int64
}

// Joiner drives the join phase.
type Joiner struct {
	Store *store.Store
	// WAClients is the WhatsApp account pool; each account can join only
	// ~250 groups before being banned, so several accounts ("SIM cards")
	// cover larger samples.
	WAClients []*whatsapp.Client
	TG        *telegram.Client
	DC        *discord.Client
	// Clock lets the joiner wait out FLOOD_WAITs by advancing virtual
	// time, standing in for the real study's wall-clock waits.
	Clock *simclock.Sim
	// Seed drives the uniform random group sampling.
	Seed uint64
	// MaxMessagesPerGroup bounds history collection (0 = unlimited).
	MaxMessagesPerGroup int
	// TitleKeywords, when non-empty, restricts the join sample to groups
	// whose monitored title contains one of the keywords
	// (case-insensitive) — the paper's future-work "focused data
	// collection within groups related to specific topics".
	TitleKeywords []string
	// Workers bounds the per-group fan-out of CollectMessages (0 = default
	// bound, 1 = serial). The pool is kept narrow because all workers share
	// each platform account's flood budget.
	Workers int

	waCursor  int // joins on the current WhatsApp account
	waAccount int

	// joined holds scalar value copies of the sampled records (the join
	// flow only reads Platform and Code off them); the authoritative state
	// lives in the store's columns.
	joined map[platform.Platform][]store.GroupRecord
	stats  counters
}

// New returns a Joiner. Every client's retry policy is switched to wait by
// advancing the shared virtual clock — the simulation's stand-in for the
// real study's wall-clock FLOOD_WAIT sleeps.
func New(st *store.Store, wa []*whatsapp.Client, tg *telegram.Client, dc *discord.Client,
	clock *simclock.Sim, seed uint64) *Joiner {
	waiter := retry.AdvanceWaiter{Clock: clock}
	for _, c := range wa {
		c.Retry.Waiter = waiter
	}
	if tg != nil {
		tg.Retry.Waiter = waiter
	}
	if dc != nil {
		dc.Retry.Waiter = waiter
	}
	return &Joiner{
		Store:     st,
		WAClients: wa,
		TG:        tg,
		DC:        dc,
		Clock:     clock,
		Seed:      seed,
		joined:    map[platform.Platform][]store.GroupRecord{},
	}
}

// Joined returns the groups joined on a platform (scalar records, in join
// order).
func (j *Joiner) Joined(p platform.Platform) []store.GroupRecord { return j.joined[p] }

// Stats returns a snapshot of the join-phase counters; between pipeline
// phases (the only places the driver reads them) the snapshot is exact.
// FloodWaits is read off the clients' retry policies, which absorb the
// rate-limit waits that the joiner used to count itself.
func (j *Joiner) Stats() Stats {
	var floods int64
	for _, c := range j.WAClients {
		floods += c.Retry.Stats().Throttles
	}
	if j.TG != nil {
		floods += j.TG.Retry.Stats().Throttles
	}
	if j.DC != nil {
		floods += j.DC.Retry.Stats().Throttles
	}
	return Stats{
		Attempted:    int(j.stats.attempted.Load()),
		Joined:       int(j.stats.joined.Load()),
		DeadInvites:  int(j.stats.deadInvites.Load()),
		FloodWaits:   int(floods),
		HiddenLists:  int(j.stats.hiddenLists.Load()),
		Deferred:     int(j.stats.deferred.Load()),
		MessagesRead: int(j.stats.messagesRead.Load()),
	}
}

// State snapshots the joined sample (per-platform codes in join order), the
// WhatsApp account rotation, and the counters for a checkpoint.
func (j *Joiner) State() checkpoint.JoinerState {
	st := checkpoint.JoinerState{
		Joined:    map[string][]string{},
		WACursor:  j.waCursor,
		WAAccount: j.waAccount,
		Stats: map[string]int64{
			"attempted":     j.stats.attempted.Load(),
			"joined":        j.stats.joined.Load(),
			"dead_invites":  j.stats.deadInvites.Load(),
			"hidden_lists":  j.stats.hiddenLists.Load(),
			"deferred":      j.stats.deferred.Load(),
			"messages_read": j.stats.messagesRead.Load(),
		},
	}
	for p, gs := range j.joined {
		codes := make([]string, len(gs))
		for i, g := range gs {
			codes[i] = g.Code
		}
		st.Joined[p.String()] = codes
	}
	return st
}

// Restore reinstates the joined sample from a checkpoint, re-resolving each
// code against the store (which the caller has already replayed). Only
// Platform and Code are read off these scalar copies downstream, so the
// post-replay records are interchangeable with the ones SelectAndJoin kept.
// Join order is preserved — CollectMessages ingests results in that order.
func (j *Joiner) Restore(st checkpoint.JoinerState) error {
	j.waCursor = st.WACursor
	j.waAccount = st.WAAccount
	j.stats.attempted.Store(st.Stats["attempted"])
	j.stats.joined.Store(st.Stats["joined"])
	j.stats.deadInvites.Store(st.Stats["dead_invites"])
	j.stats.hiddenLists.Store(st.Stats["hidden_lists"])
	j.stats.deferred.Store(st.Stats["deferred"])
	j.stats.messagesRead.Store(st.Stats["messages_read"])
	for ps, codes := range st.Joined {
		p, err := platform.ParsePlatform(ps)
		if err != nil {
			return fmt.Errorf("join: restoring sample: %w", err)
		}
		gs := make([]store.GroupRecord, len(codes))
		for i, code := range codes {
			g, ok := j.Store.Group(p, code)
			if !ok {
				return fmt.Errorf("join: restoring sample: %s/%s not in store", ps, code)
			}
			gs[i] = g
		}
		j.joined[p] = gs
	}
	return nil
}

// SelectAndJoin samples discovered groups uniformly at random per platform
// and joins them until each target is met or candidates run out (dead
// invites are skipped, mirroring the paper's random sampling of *public,
// accessible* groups). A join whose retry budget is exhausted does not
// abort the phase: the group is marked deferred and the sample moves on.
func (j *Joiner) SelectAndJoin(ctx context.Context, t Targets) error {
	rng := ids.Fork(j.Seed, "join")
	for _, p := range platform.All {
		target := map[platform.Platform]int{
			platform.WhatsApp: t.WhatsApp,
			platform.Telegram: t.Telegram,
			platform.Discord:  t.Discord,
		}[p]
		if target <= 0 {
			continue
		}
		candidates := j.filterByTitle(j.Store.GroupsOf(p))
		shuffle(rng, candidates)
		for _, g := range candidates {
			if len(j.joined[p]) >= target {
				break
			}
			j.stats.attempted.Add(1)
			ok, err := j.joinOne(ctx, g)
			if err != nil {
				j.stats.deferred.Add(1)
				j.Store.MarkDeferred(p, g.Code, "join")
				continue
			}
			if ok {
				j.joined[p] = append(j.joined[p], g)
				j.stats.joined.Add(1)
			}
		}
	}
	return nil
}

func shuffle(rng *rand.Rand, gs []store.GroupRecord) {
	rng.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
}

// filterByTitle materializes the candidate sample as scalar records,
// keeping (with keywords configured) only groups whose last observed title
// matches one of them.
func (j *Joiner) filterByTitle(gs store.GroupList) []store.GroupRecord {
	out := make([]store.GroupRecord, 0, gs.Len())
	for i := 0; i < gs.Len(); i++ {
		if len(j.TitleKeywords) > 0 {
			low := strings.ToLower(gs.Obs(i).LastTitle())
			match := false
			for _, kw := range j.TitleKeywords {
				if kw != "" && strings.Contains(low, strings.ToLower(kw)) {
					match = true
					break
				}
			}
			if !match {
				continue
			}
		}
		out = append(out, gs.At(i))
	}
	return out
}

// joinOne attempts one join, returning ok=false for recoverable skips
// (revoked invites, caps) and an error only for unexpected failures.
func (j *Joiner) joinOne(ctx context.Context, g store.GroupRecord) (bool, error) {
	switch g.Platform {
	case platform.WhatsApp:
		return j.joinWhatsApp(ctx, g)
	case platform.Telegram:
		return j.joinTelegram(ctx, g)
	case platform.Discord:
		return j.joinDiscord(ctx, g)
	}
	return false, fmt.Errorf("unknown platform %v", g.Platform)
}

// waClient returns the active WhatsApp account, rotating before the ban
// threshold.
func (j *Joiner) waClient() *whatsapp.Client {
	if j.waCursor >= 240 && j.waAccount < len(j.WAClients)-1 {
		j.waAccount++
		j.waCursor = 0
	}
	return j.WAClients[j.waAccount]
}

func (j *Joiner) joinWhatsApp(ctx context.Context, g store.GroupRecord) (bool, error) {
	if len(j.WAClients) == 0 {
		return false, errors.New("no WhatsApp accounts")
	}
	c := j.waClient()
	joinedAt, err := c.Join(ctx, g.Code)
	switch {
	case errors.Is(err, whatsapp.ErrRevoked), errors.Is(err, whatsapp.ErrNotFound):
		j.stats.deadInvites.Add(1)
		return false, nil
	case errors.Is(err, whatsapp.ErrBanned):
		// Account exhausted; rotate and retry once.
		if j.waAccount >= len(j.WAClients)-1 {
			return false, nil
		}
		j.waAccount++
		j.waCursor = 0
		return j.joinWhatsApp(ctx, g)
	case err != nil:
		return false, err
	}
	j.waCursor++
	info, err := c.Info(ctx, g.Code)
	if err != nil {
		return false, err
	}
	members, err := c.Members(ctx, g.Code)
	if err != nil {
		return false, err
	}
	j.Store.MarkJoined(g.Platform, g.Code, func(rec *store.GroupRecord) {
		rec.JoinedAt = joinedAt
		rec.CreatedAt = info.CreatedAt
		rec.MemberCount = len(members)
		rec.Channels = 1
	})
	for _, m := range members {
		j.Store.UpsertUser(store.UserRecord{
			Platform:  platform.WhatsApp,
			Key:       store.PhoneKey(m.Phone),
			PhoneHash: store.HashPhone(m.Phone),
			Country:   m.Country,
		})
	}
	return true, nil
}

func (j *Joiner) joinTelegram(ctx context.Context, g store.GroupRecord) (bool, error) {
	joinedAt, err := j.TG.Join(ctx, g.Code)
	switch {
	case errors.Is(err, telegram.ErrExpired), errors.Is(err, telegram.ErrNotFound):
		j.stats.deadInvites.Add(1)
		return false, nil
	case err != nil:
		return false, err
	}
	info, err := j.TG.Info(ctx, g.Code)
	if err != nil {
		return false, err
	}
	j.Store.MarkJoined(g.Platform, g.Code, func(rec *store.GroupRecord) {
		rec.JoinedAt = joinedAt
		rec.CreatedAt = info.CreatedAt
		rec.IsChannel = info.IsChannel
		rec.HiddenMembers = info.HiddenMembers
		rec.MemberCount = info.Members
		rec.Channels = 1
		rec.CreatorKey = fmt.Sprintf("tg-creator-%d", info.CreatorID)
	})
	// Member lists are available only where admins did not hide them
	// (24 of 100 joined rooms in the paper).
	parts, err := j.TG.Participants(ctx, g.Code)
	switch {
	case errors.Is(err, telegram.ErrHiddenList):
		j.stats.hiddenLists.Add(1)
	case err != nil:
		return false, err
	default:
		for _, p := range parts {
			u := store.UserRecord{Platform: platform.Telegram, Key: p.ID}
			if p.Phone != "" {
				u.PhoneHash = store.HashPhone(p.Phone)
			}
			j.Store.UpsertUser(u)
		}
	}
	return true, nil
}

func (j *Joiner) joinDiscord(ctx context.Context, g store.GroupRecord) (bool, error) {
	inv, err := j.DC.Join(ctx, g.Code)
	switch {
	case errors.Is(err, discord.ErrUnknownInvite):
		j.stats.deadInvites.Add(1)
		return false, nil
	case errors.Is(err, discord.ErrGuildCap):
		// The hard 100-guild limit: no more Discord joins possible.
		return false, nil
	case err != nil:
		return false, err
	}
	chs, err := j.DC.Channels(ctx, inv.GuildID)
	if err != nil {
		return false, err
	}
	j.Store.MarkJoined(g.Platform, g.Code, func(rec *store.GroupRecord) {
		rec.JoinedAt = j.Clock.Now()
		rec.CreatedAt = inv.CreatedAt
		rec.Channels = len(chs)
		rec.MemberCount = inv.Members
	})
	return true, nil
}
