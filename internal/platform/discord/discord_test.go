package discord

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
	"msgscope/internal/retry"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

type fixture struct {
	world *simworld.World
	clock *simclock.Sim
	srv   *httptest.Server
}

func newFixture(t *testing.T, cfg ServiceConfig) *fixture {
	t.Helper()
	w := simworld.New(simworld.DefaultConfig(5, 0.004))
	clock := simclock.New(w.Cfg.Start)
	clock.Advance(10 * 24 * time.Hour)
	svc := NewService(w, clock, cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return &fixture{world: w, clock: clock, srv: srv}
}

func (f *fixture) pick(t *testing.T, pred func(*simworld.Group) bool) *simworld.Group {
	t.Helper()
	for _, g := range f.world.Groups[platform.Discord] {
		if pred(g) {
			return g
		}
	}
	t.Fatal("no matching Discord group in fixture")
	return nil
}

func (f *fixture) alive(g *simworld.Group) bool {
	return f.world.AliveAt(g, f.clock.Now().Add(48*time.Hour)) &&
		g.FirstShareAt.Before(f.clock.Now())
}

func TestInviteMetadataAndSnowflakeDate(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "acct")
	inv, err := c.ProbeInvite(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if inv.GuildName != g.Title || inv.GuildID != g.GuildID {
		t.Fatalf("invite wrong: %+v", inv)
	}
	if inv.Members != f.world.MembersAt(g, f.clock.Now()) {
		t.Fatalf("member count %d", inv.Members)
	}
	// The crawler recovers the creation date from the snowflake.
	if d := inv.CreatedAt.Sub(g.CreatedAt); d > time.Millisecond || d < -time.Millisecond {
		t.Fatalf("snowflake date %v, want %v", inv.CreatedAt, g.CreatedAt)
	}
}

func TestInviteExpired(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		return !g.RevokedAt.IsZero() && g.RevokedAt.Before(f.clock.Now())
	})
	c := NewClient(f.srv.URL, "acct")
	if _, err := c.ProbeInvite(context.Background(), g.Code); !errors.Is(err, ErrUnknownInvite) {
		t.Fatalf("err = %v, want ErrUnknownInvite", err)
	}
}

func TestInviteProbeIsPublic(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "") // no account at all
	if _, err := c.ProbeInvite(context.Background(), g.Code); err != nil {
		t.Fatalf("public invite probe failed: %v", err)
	}
}

func TestBotsCannotJoin(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, f.alive)
	bot := NewClient(f.srv.URL, "bot:crawler")
	if _, err := bot.Join(context.Background(), g.Code); !errors.Is(err, ErrBotForbidden) {
		t.Fatalf("err = %v, want ErrBotForbidden", err)
	}
}

// allMessages pages backwards through a channel's entire history, copying
// each page out before the next Next reuses it.
func allMessages(ctx context.Context, c *Client, channelID uint64) ([]Message, error) {
	var out []Message
	p := c.MessagePager(channelID)
	for !p.Done() {
		page, err := p.Next(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, page...)
	}
	return out, nil
}

func TestJoinChannelsMessagesProfiles(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		return f.alive(g) && f.clock.Now().Sub(g.CreatedAt) < 20*24*time.Hour
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	inv, err := c.Join(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	chs, err := c.Channels(ctx, inv.GuildID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chs) != g.Channels {
		t.Fatalf("%d channels, want %d", len(chs), g.Channels)
	}
	var total int
	var anyAuthor uint64
	for _, ch := range chs {
		msgs, err := allMessages(ctx, c, ch.ID)
		if err != nil {
			t.Fatal(err)
		}
		total += len(msgs)
		for _, m := range msgs {
			if m.SentAt.Before(g.CreatedAt) {
				t.Fatal("message predates guild creation")
			}
			anyAuthor = m.AuthorID
		}
	}
	want := guildMessageCount(f.world, g, g.CreatedAt, f.clock.Now())
	if total < want-5 || total > want {
		t.Fatalf("collected %d messages across channels, world has %d", total, want)
	}
	if anyAuthor != 0 {
		prof, err := c.UserProfile(ctx, anyAuthor)
		if err != nil {
			t.Fatal(err)
		}
		if prof.UserID != anyAuthor {
			t.Fatalf("profile user %d, want %d", prof.UserID, anyAuthor)
		}
	}
}

func TestProfileUnknownUser(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	c := NewClient(f.srv.URL, "acct")
	if _, err := c.UserProfile(context.Background(), 999999999); err == nil {
		t.Fatal("unknown user profile should fail")
	}
}

func TestGuildCap(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	joined := 0
	var capErr error
	for _, g := range f.world.Groups[platform.Discord] {
		if !f.world.AliveAt(g, f.clock.Now()) {
			continue
		}
		_, err := c.Join(ctx, g.Code)
		switch {
		case err == nil:
			joined++
		case errors.Is(err, ErrGuildCap):
			capErr = err
		case errors.Is(err, ErrRateLimited):
			f.clock.Advance(time.Minute)
		default:
			t.Fatal(err)
		}
		if capErr != nil {
			break
		}
	}
	if capErr == nil {
		t.Skipf("fixture too small to hit the guild cap (joined %d)", joined)
	}
	if joined != 100 {
		t.Fatalf("cap hit after %d joins, want exactly 100", joined)
	}
}

func TestRateLimit429(t *testing.T) {
	f := newFixture(t, ServiceConfig{Budget: 2, Window: time.Minute})
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	var rlErr error
	for i := 0; i < 5; i++ {
		if _, err := c.Join(ctx, g.Code); err != nil {
			rlErr = err
			break
		}
	}
	if !errors.Is(rlErr, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", rlErr)
	}
	f.clock.Advance(time.Minute)
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

// guildMessageCount sums the world's messages of every channel of g in
// [from, to).
func guildMessageCount(w *simworld.World, g *simworld.Group, from, to time.Time) int {
	n := 0
	for ch := 0; ch < g.Channels; ch++ {
		n += len(w.Messages(g, ch, from, to))
	}
	return n
}

// pagedHistory is the oracle of the `before`-cursor protocol: it pages
// one channel's history, generated in a single call over the whole
// window, exactly as the endpoint must serve it. Each page holds the 100
// newest messages before the cursor, and the next cursor is the last
// message's snowflake, which the service reads back at millisecond
// resolution.
func pagedHistory(w *simworld.World, g *simworld.Group, ch int, before uint64) [][]simworld.Message {
	floor := g.CreatedAt
	if floor.Before(discordEpoch) {
		floor = discordEpoch
	}
	all := w.Messages(g, ch, floor, ids.SnowflakeTime(ids.DiscordEpochMS, before))
	var pages [][]simworld.Message
	for {
		var page []simworld.Message
		for i := len(all) - 1; i >= 0 && len(page) < 100; i-- {
			page = append(page, all[i])
		}
		if len(page) > 0 {
			pages = append(pages, page)
		}
		if len(page) < 100 {
			return pages
		}
		last := page[len(page)-1]
		until := ids.SnowflakeTime(ids.DiscordEpochMS, ids.Snowflake(ids.DiscordEpochMS, last.SentAt, last.Seq))
		all = all[:len(all)-len(page)]
		for len(all) > 0 && !all[len(all)-1].SentAt.Before(until) {
			all = all[:len(all)-1]
		}
	}
}

// TestMessagePagerPagination pages the busiest channel of a multi-channel
// guild to the end. The service steps day-aligned windows of that one
// channel while page boundaries fall mid-day, so the pages must equal the
// single-call oracle, message for message, page for page.
func TestMessagePagerPagination(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	now := f.clock.Now()
	g := f.pick(t, func(g *simworld.Group) bool {
		if !f.alive(g) || g.Channels < 2 {
			return false
		}
		n := guildMessageCount(f.world, g, g.CreatedAt, now)
		return n > 300 && n < 20000
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	inv, err := c.Join(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	chs, err := c.Channels(ctx, inv.GuildID)
	if err != nil {
		t.Fatal(err)
	}
	// Page the busiest channel so the history spans multiple pages.
	busiest, most := 0, -1
	for ch := 0; ch < g.Channels; ch++ {
		if n := len(f.world.Messages(g, ch, g.CreatedAt, now)); n > most {
			busiest, most = ch, n
		}
	}
	if most < 150 {
		t.Skipf("busiest channel has only %d messages", most)
	}
	before := ids.Snowflake(ids.DiscordEpochMS, now, 0)
	want := pagedHistory(f.world, g, busiest, before)
	pager := c.MessagePagerBefore(chs[busiest].ID, before)
	pages := 0
	seen := map[uint64]bool{}
	for !pager.Done() {
		page, err := pager.Next(ctx)
		if errors.Is(err, ErrRateLimited) {
			f.clock.Advance(time.Minute)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			continue
		}
		if pages >= len(want) {
			t.Fatalf("served page %d, oracle has %d", pages+1, len(want))
		}
		if len(page) != len(want[pages]) {
			t.Fatalf("page %d: %d messages, oracle %d", pages, len(page), len(want[pages]))
		}
		for i, m := range page {
			wm := want[pages][i]
			u := f.world.UserByIdx(platform.Discord, wm.AuthorIdx)
			if m.ID != ids.Snowflake(ids.DiscordEpochMS, wm.SentAt, wm.Seq) || !m.SentAt.Equal(wm.SentAt) ||
				m.AuthorID != u.ID || m.Author != u.Name || m.Type != wm.Type.String() || m.Content != wm.Text {
				t.Fatalf("page %d message %d: got %+v, oracle %+v", pages, i, m, wm)
			}
			if seen[m.ID] {
				t.Fatalf("message %d served twice across pages", m.ID)
			}
			seen[m.ID] = true
		}
		pages++
	}
	if pages != len(want) {
		t.Fatalf("served %d pages, oracle has %d", pages, len(want))
	}
	if pages < 2 {
		t.Fatalf("expected multi-page history, got %d pages", pages)
	}
}

// TestMessagePageBytesAtMidDayCursors fetches raw history pages at
// cursors that fall mid-day, in every channel of a multi-channel guild,
// and holds each body byte-equal to the oracle page encoded the way the
// endpoint encodes it.
func TestMessagePageBytesAtMidDayCursors(t *testing.T) {
	f := newFixture(t, ServiceConfig{Budget: 1 << 20, Window: time.Minute})
	now := f.clock.Now()
	g := f.pick(t, func(g *simworld.Group) bool {
		return f.alive(g) && g.Channels >= 3 && guildMessageCount(f.world, g, g.CreatedAt, now) > 300
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	inv, err := c.Join(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	chs, err := c.Channels(ctx, inv.GuildID)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	fetched := 0
	for ch := range chs {
		for k := 0; k < 6; k++ {
			// A random millisecond of the guild's life: never day-aligned
			// in practice, and usually inside a day with messages on both
			// sides of the cursor.
			at := g.CreatedAt.Add(time.Duration(rng.Int64N(int64(now.Sub(g.CreatedAt)))))
			before := ids.Snowflake(ids.DiscordEpochMS, at, 0)
			var want []byte
			if pages := pagedHistory(f.world, g, ch, before); len(pages) == 0 {
				want = []byte("null\n")
			} else {
				want = append(want, '[')
				for i, m := range pages[0] {
					if i > 0 {
						want = append(want, ',')
					}
					u := f.world.UserByIdx(platform.Discord, m.AuthorIdx)
					want = appendMessageOut(want, ids.Snowflake(ids.DiscordEpochMS, m.SentAt, m.Seq), u.ID, u.Name, m.SentAt, m.Type.String(), m.Text)
				}
				want = append(want, ']', '\n')
			}
			url := f.srv.URL + "/api/v9/channels/" + strconv.FormatUint(chs[ch].ID, 10) + "/messages?limit=100&before=" + strconv.FormatUint(before, 10)
			req, _ := http.NewRequest(http.MethodGet, url, nil)
			req.Header.Set("X-DC-Account", "acct")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, err %v", resp.StatusCode, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("channel %d before %v:\n got %s\nwant %s", ch, at, got, want)
			}
			fetched++
		}
	}
	if fetched == 0 {
		t.Fatal("no pages fetched")
	}
}

// TestPreEpochGuildHistoryFinishes pages the full history of a guild
// created before the snowflake epoch (seed 42 at 0.4% scale has one, from
// 2014). Its pre-epoch messages all clamp to snowflake ms 0, so a `before`
// cursor pointing at them used to fetch the same page forever. History
// now stops at the epoch and every page moves the cursor back.
func TestPreEpochGuildHistoryFinishes(t *testing.T) {
	w := simworld.New(simworld.DefaultConfig(42, 0.004))
	clock := simclock.New(w.Cfg.Start)
	clock.Advance(10 * 24 * time.Hour)
	srv := httptest.NewServer(NewService(w, clock, DefaultServiceConfig()).Handler())
	defer srv.Close()
	var g *simworld.Group
	for _, cand := range w.Groups[platform.Discord] {
		if cand.CreatedAt.Before(discordEpoch) && w.AliveAt(cand, clock.Now()) {
			g = cand
			break
		}
	}
	if g == nil {
		t.Fatal("seed 42 world has no live pre-epoch Discord guild")
	}
	if guildMessageCount(w, g, g.CreatedAt, discordEpoch) < 100 {
		t.Fatal("pre-epoch guild has under a page of pre-epoch history")
	}
	c := NewClient(srv.URL, "acct")
	c.Retry.Waiter = retry.AdvanceWaiter{Clock: clock} // wait out rate limits
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inv, err := c.Join(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	chs, err := c.Channels(ctx, inv.GuildID)
	if err != nil {
		t.Fatal(err)
	}
	// Anchor every pager at one horizon, as the join phase does, so the
	// rate-limit waits that advance the clock do not move the window.
	horizon := clock.Now()
	total := 0
	for _, ch := range chs {
		pager := c.MessagePagerBefore(ch.ID, ids.Snowflake(ids.DiscordEpochMS, horizon, 0))
		var prev uint64
		for !pager.Done() {
			page, err := pager.Next(ctx)
			if err != nil {
				t.Fatalf("channel %d: %v", ch.ID, err)
			}
			for _, m := range page {
				if m.SentAt.Before(discordEpoch) {
					t.Fatalf("served pre-epoch message at %v", m.SentAt)
				}
				if prev != 0 && m.ID >= prev {
					t.Fatalf("message IDs not strictly decreasing: %d after %d", m.ID, prev)
				}
				prev = m.ID
			}
			total += len(page)
		}
	}
	if want := guildMessageCount(w, g, discordEpoch, horizon); total < want-5 || total > want {
		t.Fatalf("collected %d messages, world has %d since the epoch", total, want)
	}
}

// TestMessagePagerStalledCursor serves the same full page for every
// cursor: the pager must stop with ErrCursorStalled instead of looping.
func TestMessagePagerStalledCursor(t *testing.T) {
	page := []byte{'['}
	for i := 0; i < 100; i++ {
		if i > 0 {
			page = append(page, ',')
		}
		page = appendMessageOut(page, uint64(1000-i), 7, "u", time.Unix(1600000000, 0).UTC(), "text", "")
	}
	page = append(page, ']')
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(page)
	}))
	defer srv.Close()
	p := NewClient(srv.URL, "acct").MessagePager(1)
	ctx := context.Background()
	if got, err := p.Next(ctx); err != nil || len(got) != 100 {
		t.Fatalf("first page: %d messages, err %v", len(got), err)
	}
	if _, err := p.Next(ctx); !errors.Is(err, ErrCursorStalled) {
		t.Fatalf("second page err = %v, want ErrCursorStalled", err)
	}
	if !p.Done() {
		t.Fatal("pager not done after a stalled cursor")
	}
}

// TestMessagePagerRetryStartsFromEmptyPage: the first attempt at each page
// gets a body that decodes some rows and then fails (truncated, then a
// malformed row), and the retry gets the good page. Next must return
// exactly the good page: no rows of the failed attempt, and none left in
// the reused buffer by the previous, longer page.
func TestMessagePagerRetryStartsFromEmptyPage(t *testing.T) {
	sent := time.Unix(1600000000, 0).UTC()
	encode := func(newest uint64, n int) []byte {
		b := []byte{'['}
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMessageOut(b, newest-uint64(i), uint64(i%7), "u", sent.Add(-time.Duration(i)*time.Second), "text", "")
		}
		return append(b, ']')
	}
	good := map[string][]byte{"": encode(1000, 100), "901": encode(900, 30)}
	bad := map[string][]byte{
		"":    good[""][:len(good[""])*2/3],
		"901": append(slices.Clip(good["901"][:len(good["901"])-1]), `,{"id":"x"}]`...),
	}
	var mu sync.Mutex
	attempts := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		before := r.URL.Query().Get("before")
		mu.Lock()
		attempts[before]++
		first := attempts[before] == 1
		mu.Unlock()
		if first {
			w.Write(bad[before])
			return
		}
		w.Write(good[before])
	}))
	defer srv.Close()

	p := NewClient(srv.URL, "acct").MessagePager(1)
	for _, before := range []string{"", "901"} {
		want, _, err := parseMessagePage(nil, good[before], ids.NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		if part, _, err := parseMessagePage(nil, bad[before], ids.NewInterner()); err == nil || len(part) == 0 {
			t.Fatalf("before=%q: bad body decodes %d rows, err %v; want some rows, then an error", before, len(part), err)
		}
		got, err := p.Next(context.Background())
		if err != nil {
			t.Fatalf("before=%q: %v", before, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("before=%q: Next returned %d messages, want the good page's %d", before, len(got), len(want))
		}
	}
	if !p.Done() {
		t.Fatal("pager not done after a short page")
	}
	if attempts[""] != 2 || attempts["901"] != 2 {
		t.Fatalf("attempts per page = %v, want 2 each", attempts)
	}
}
