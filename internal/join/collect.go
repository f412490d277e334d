package join

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/par"
	"msgscope/internal/platform"
	"msgscope/internal/platform/discord"
	"msgscope/internal/store"
)

// defaultCollectWorkers bounds the per-group fan-out when Workers is unset.
// The pool stays narrow on purpose: every worker draws on the same
// per-account flood budgets, so past a handful of workers the extra
// concurrency only converts useful requests into FLOOD_WAIT retries. The
// GOMAXPROCS benchmark matrix (BENCH_6.json) also caps it from below the
// other direction: on a 1–2 core machine two workers per core already
// overlaps the request latency, so the pool follows the core count up to
// the flood-budget ceiling of 8.
func defaultCollectWorkers() int {
	return max(2, min(8, 2*runtime.GOMAXPROCS(0)))
}

// gathered is one group's collection output, buffered locally by a worker
// and ingested afterwards in deterministic group order. Messages keep the
// exact-size pages they arrived in, so a long history is never regrown.
type gathered struct {
	pages [][]store.MessageRecord
	users []store.UserRecord
}

// CollectMessages gathers in-group data for every joined group: WhatsApp
// messages since the join (the platform exposes nothing earlier), Telegram
// and Discord full history since group creation. Message authors are
// recorded as observed users; on Discord, profiles of users who posted are
// fetched to capture linked accounts.
//
// The per-group fetches run concurrently on a bounded pool. Two things keep
// the collected dataset identical to a serial run:
//
//   - The collection horizon is frozen up front. Flood waits advance the
//     shared virtual clock, so an unpinned pager's first page would see a
//     window that depends on worker scheduling; every pager here is anchored
//     at the horizon instead, making each group's message set a pure
//     function of (group, horizon).
//   - Workers buffer into local slices; the results are ingested via the
//     store's batch APIs in joined-group order (WhatsApp, then Telegram,
//     then Discord), so the store's message slice matches the serial order.
//
// Discord invite re-resolution stays serial: invites expire as virtual time
// passes, so probing them must happen in a deterministic clock sequence.
func (j *Joiner) CollectMessages(ctx context.Context) error {
	horizon := j.Clock.Now()

	var waGroups []store.GroupRecord
	var waAccounts []int
	for _, g := range j.joined[platform.WhatsApp] {
		ci, err := j.waClientFor(ctx, g.Code)
		if err != nil {
			// Cannot even resolve a member account: defer the group rather
			// than abort the whole collection pass.
			j.stats.deferred.Add(1)
			j.Store.MarkDeferred(platform.WhatsApp, g.Code, "collect")
			continue
		}
		waGroups = append(waGroups, g)
		waAccounts = append(waAccounts, ci)
	}

	type dcPrep struct {
		g   store.GroupRecord
		chs []discord.Channel
	}
	var dcPreps []dcPrep
	for _, g := range j.joined[platform.Discord] {
		// Re-resolve the guild and channels from the invite.
		inv, err := j.DC.ProbeInvite(ctx, g.Code)
		if err != nil {
			if errors.Is(err, discord.ErrUnknownInvite) {
				// Invite died after we joined; we are still a member, but
				// the simulation keys access by invite, so skip its history.
				continue
			}
			j.stats.deferred.Add(1)
			j.Store.MarkDeferred(platform.Discord, g.Code, "collect")
			continue
		}
		chs, err := j.DC.Channels(ctx, inv.GuildID)
		if err != nil {
			j.stats.deferred.Add(1)
			j.Store.MarkDeferred(platform.Discord, g.Code, "collect")
			continue
		}
		dcPreps = append(dcPreps, dcPrep{g: g, chs: chs})
	}

	tgGroups := j.joined[platform.Telegram]
	results := make([]gathered, len(waGroups)+len(tgGroups)+len(dcPreps))
	tasks := make([]func() error, 0, len(results))
	slot := 0
	// A fetch that exhausts its retry budget defers the group (dropping its
	// partially gathered batch so reruns stay deterministic) instead of
	// failing the pass; the group is re-collected on the next join round.
	for i, g := range waGroups {
		out := &results[slot]
		ci := waAccounts[i]
		tasks = append(tasks, func() error {
			got, err := j.fetchWhatsApp(ctx, g, ci, horizon)
			if err != nil {
				j.stats.deferred.Add(1)
				j.Store.MarkDeferred(platform.WhatsApp, g.Code, "collect")
				return nil
			}
			*out = got
			return nil
		})
		slot++
	}
	for _, g := range tgGroups {
		out := &results[slot]
		tasks = append(tasks, func() error {
			got, err := j.fetchTelegram(ctx, g, horizon)
			if err != nil {
				j.stats.deferred.Add(1)
				j.Store.MarkDeferred(platform.Telegram, g.Code, "collect")
				return nil
			}
			*out = got
			return nil
		})
		slot++
	}
	for _, p := range dcPreps {
		out := &results[slot]
		tasks = append(tasks, func() error {
			got, err := j.fetchDiscord(ctx, p.g, p.chs, horizon)
			if err != nil {
				j.stats.deferred.Add(1)
				j.Store.MarkDeferred(platform.Discord, p.g.Code, "collect")
				return nil
			}
			*out = got
			return nil
		})
		slot++
	}

	workers := j.Workers
	if workers <= 0 {
		workers = defaultCollectWorkers()
	}
	if err := par.Do(workers, tasks); err != nil {
		return err
	}

	for i := range results {
		for _, page := range results[i].pages {
			j.Store.AddMessageBatch(page)
		}
		j.Store.UpsertUserBatch(results[i].users)
	}
	return nil
}

// waClientFor finds the account that joined the group (any member account
// can sync; the joiner only ever joins with one).
func (j *Joiner) waClientFor(ctx context.Context, code string) (int, error) {
	for i, c := range j.WAClients {
		if _, err := c.Info(ctx, code); err == nil {
			return i, nil
		}
	}
	return 0, errors.New("no member account for group")
}

func (j *Joiner) fetchWhatsApp(ctx context.Context, g store.GroupRecord, account int, horizon time.Time) (gathered, error) {
	msgs, err := j.WAClients[account].MessagesUntil(ctx, g.Code, time.Time{}, horizon)
	if err != nil {
		return gathered{}, err
	}
	if j.MaxMessagesPerGroup > 0 && len(msgs) > j.MaxMessagesPerGroup {
		msgs = msgs[:j.MaxMessagesPerGroup]
	}
	var out gathered
	page := make([]store.MessageRecord, 0, len(msgs))
	// Each author is recorded once, in first-seen order: repeated upserts
	// of the same record merge to nothing.
	authors := map[uint64]struct{}{}
	for _, m := range msgs {
		key := store.PhoneKey(m.AuthorPhone)
		page = append(page, store.MessageRecord{
			Platform:  platform.WhatsApp,
			GroupCode: g.Code,
			AuthorKey: key,
			SentAt:    m.SentAt,
			Type:      parseType(m.Type),
			Text:      m.Text,
		})
		if _, seen := authors[key]; !seen {
			authors[key] = struct{}{}
			out.users = append(out.users, store.UserRecord{
				Platform:  platform.WhatsApp,
				Key:       key,
				PhoneHash: store.HashPhone(m.AuthorPhone),
			})
		}
	}
	out.pages = [][]store.MessageRecord{page}
	j.stats.messagesRead.Add(int64(len(page)))
	return out, nil
}

func (j *Joiner) fetchTelegram(ctx context.Context, g store.GroupRecord, horizon time.Time) (gathered, error) {
	pager := j.TG.HistoryPagerAt(g.Code, horizon)
	var out gathered
	authors := map[uint64]struct{}{} // as in fetchWhatsApp
	count := 0
	for !pager.Done() {
		page, err := pager.Next(ctx)
		if err != nil {
			return gathered{}, err
		}
		recs := make([]store.MessageRecord, 0, len(page))
		for _, m := range page {
			recs = append(recs, store.MessageRecord{
				Platform:  platform.Telegram,
				GroupCode: g.Code,
				AuthorKey: m.FromID,
				SentAt:    m.SentAt,
				Type:      parseType(m.Type),
				Text:      m.Text,
			})
			if _, seen := authors[m.FromID]; !seen {
				authors[m.FromID] = struct{}{}
				out.users = append(out.users, store.UserRecord{Platform: platform.Telegram, Key: m.FromID})
			}
		}
		out.pages = append(out.pages, recs)
		count += len(recs)
		if j.MaxMessagesPerGroup > 0 && count >= j.MaxMessagesPerGroup {
			break
		}
	}
	j.stats.messagesRead.Add(int64(count))
	return out, nil
}

func (j *Joiner) fetchDiscord(ctx context.Context, g store.GroupRecord, chs []discord.Channel, horizon time.Time) (gathered, error) {
	before := ids.Snowflake(ids.DiscordEpochMS, horizon, 0)
	authors := map[uint64]struct{}{}
	var out gathered
	count := 0
	for _, ch := range chs {
		pager := j.DC.MessagePagerBefore(ch.ID, before)
		for !pager.Done() {
			page, err := pager.Next(ctx)
			if err != nil {
				return gathered{}, err
			}
			recs := make([]store.MessageRecord, 0, len(page))
			for _, m := range page {
				recs = append(recs, store.MessageRecord{
					Platform:  platform.Discord,
					GroupCode: g.Code,
					AuthorKey: m.AuthorID,
					SentAt:    m.SentAt,
					Type:      parseType(m.Type),
					Text:      m.Content,
				})
				authors[m.AuthorID] = struct{}{}
			}
			out.pages = append(out.pages, recs)
			count += len(recs)
			if j.MaxMessagesPerGroup > 0 && count >= j.MaxMessagesPerGroup {
				break
			}
		}
		if j.MaxMessagesPerGroup > 0 && count >= j.MaxMessagesPerGroup {
			break
		}
	}
	j.stats.messagesRead.Add(int64(count))
	// Profile fetches: users who posted at least one message (Section 6),
	// in sorted-ID order so the request sequence is deterministic.
	authorIDs := make([]uint64, 0, len(authors))
	for aid := range authors {
		authorIDs = append(authorIDs, aid)
	}
	sort.Slice(authorIDs, func(a, b int) bool { return authorIDs[a] < authorIDs[b] })
	for _, aid := range authorIDs {
		prof, err := j.DC.UserProfile(ctx, aid)
		if err != nil {
			return gathered{}, err
		}
		out.users = append(out.users, store.UserRecord{
			Platform: platform.Discord,
			Key:      aid,
			Linked:   prof.Linked,
		})
	}
	return out, nil
}

func parseType(s string) platform.MessageType {
	for _, t := range platform.MessageTypes {
		if t.String() == s {
			return t
		}
	}
	return platform.Service
}
