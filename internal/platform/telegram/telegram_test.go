package telegram

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
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

type fixture struct {
	world *simworld.World
	clock *simclock.Sim
	srv   *httptest.Server
	cfg   ServiceConfig
}

func newFixture(t *testing.T, cfg ServiceConfig) *fixture {
	t.Helper()
	w := simworld.New(simworld.DefaultConfig(4, 0.01))
	clock := simclock.New(w.Cfg.Start)
	clock.Advance(10 * 24 * time.Hour)
	svc := NewService(w, clock, cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return &fixture{world: w, clock: clock, srv: srv, cfg: cfg}
}

func (f *fixture) pick(t *testing.T, pred func(*simworld.Group) bool) *simworld.Group {
	t.Helper()
	for _, g := range f.world.Groups[platform.Telegram] {
		if pred(g) {
			return g
		}
	}
	t.Fatal("no matching Telegram group in fixture")
	return nil
}

func (f *fixture) alive(g *simworld.Group) bool {
	return f.world.AliveAt(g, f.clock.Now().Add(48*time.Hour)) &&
		g.FirstShareAt.Before(f.clock.Now())
}

func TestPreviewScrape(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && !g.IsChannel })
	c := NewClient(f.srv.URL, "acct")
	p, err := c.ProbePreview(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Alive || p.Title != g.Title || p.IsChannel {
		t.Fatalf("preview wrong: %+v (want title %q)", p, g.Title)
	}
	now := f.clock.Now()
	if p.Members != f.world.MembersAt(g, now) || p.Online != f.world.OnlineAt(g, now) {
		t.Fatalf("counts wrong: %+v", p)
	}
}

func TestPreviewChannelFlag(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && g.IsChannel })
	c := NewClient(f.srv.URL, "acct")
	p, err := c.ProbePreview(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsChannel {
		t.Fatal("channel not flagged")
	}
}

func TestPreviewDead(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		return !g.RevokedAt.IsZero() && g.RevokedAt.Before(f.clock.Now())
	})
	c := NewClient(f.srv.URL, "acct")
	p, err := c.ProbePreview(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alive {
		t.Fatal("dead invite reported alive")
	}
}

// allHistory pages backwards through a chat's entire history, copying
// each page out before the next Next reuses it.
func allHistory(ctx context.Context, c *Client, code string) ([]Message, error) {
	var out []Message
	p := c.HistoryPager(code)
	for !p.Done() {
		page, err := p.Next(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, page...)
	}
	return out, nil
}

func TestJoinAndHistorySinceCreation(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		// A young group so the full history is cheap to page.
		return f.alive(g) && f.clock.Now().Sub(g.CreatedAt) < 12*24*time.Hour
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CreatedAt.Equal(g.CreatedAt.Truncate(time.Millisecond)) {
		t.Fatalf("creation date %v, want %v", info.CreatedAt, g.CreatedAt)
	}
	msgs, err := allHistory(ctx, c, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	want := f.world.Messages(g, 0, g.CreatedAt, f.clock.Now())
	// History pagination can drop same-millisecond boundary collisions;
	// allow a sliver of slack.
	if len(msgs) < len(want)-3 || len(msgs) > len(want) {
		t.Fatalf("history %d messages, world has %d", len(msgs), len(want))
	}
	// Unlike WhatsApp, pre-"join" history IS visible.
	pre := 0
	for _, m := range msgs {
		if m.SentAt.Before(f.clock.Now().Add(-24 * time.Hour)) {
			pre++
		}
	}
	if len(want) > 20 && pre == 0 {
		t.Fatal("no pre-join history returned")
	}
}

func TestJoinExpired(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, func(g *simworld.Group) bool {
		return !g.RevokedAt.IsZero() && g.RevokedAt.Before(f.clock.Now())
	})
	c := NewClient(f.srv.URL, "acct")
	if _, err := c.Join(context.Background(), g.Code); !errors.Is(err, ErrExpired) {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestParticipantsHiddenVsVisible(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	ctx := context.Background()
	c := NewClient(f.srv.URL, "acct")

	hidden := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && g.HiddenMembers })
	if _, err := c.Join(ctx, hidden.Code); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Participants(ctx, hidden.Code); !errors.Is(err, ErrHiddenList) {
		t.Fatalf("hidden list err = %v, want ErrHiddenList", err)
	}

	visible := f.pick(t, func(g *simworld.Group) bool { return f.alive(g) && !g.HiddenMembers })
	if _, err := c.Join(ctx, visible.Code); err != nil {
		t.Fatal(err)
	}
	parts, err := c.Participants(ctx, visible.Code)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) == 0 {
		t.Fatal("no participants")
	}
	// Every field survives the wire: the list is the world's member list,
	// with phones only for opt-in users.
	idxs := f.world.MemberIdx(visible, f.clock.Now())
	if len(parts) != len(idxs) {
		t.Fatalf("got %d participants, want %d", len(parts), len(idxs))
	}
	for i, idx := range idxs {
		u := f.world.UserByIdx(platform.Telegram, idx)
		want := Participant{ID: u.ID, Name: u.Name}
		if u.PhoneVisible {
			want.Phone = u.Phone
		}
		if parts[i] != want {
			t.Fatalf("participant %d = %+v, want %+v", i, parts[i], want)
		}
	}
	withPhone := 0
	for _, p := range parts {
		if p.Phone != "" {
			withPhone++
		}
	}
	// Phone opt-in is ~0.68%: most participants must hide their phone.
	if frac := float64(withPhone) / float64(len(parts)); frac > 0.05 {
		t.Fatalf("%.3f of participants expose phones, want <0.05", frac)
	}
}

func TestUnauthenticatedAPI(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	c := NewClient(f.srv.URL, "")
	if _, err := c.Join(context.Background(), "whatever"); err == nil {
		t.Fatal("missing account should fail")
	}
}

func TestNotMemberHistory(t *testing.T) {
	f := newFixture(t, DefaultServiceConfig())
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "acct")
	if _, err := allHistory(context.Background(), c, g.Code); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v, want ErrNotMember", err)
	}
}

func TestFloodWait(t *testing.T) {
	f := newFixture(t, ServiceConfig{APIBudget: 3, APIWindow: time.Minute, FloodWaitSeconds: 30})
	g := f.pick(t, f.alive)
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatal(err)
	}
	var floodErr error
	for i := 0; i < 10; i++ {
		if _, err := c.Info(ctx, g.Code); err != nil {
			floodErr = err
			break
		}
	}
	if !errors.Is(floodErr, ErrFloodWait) {
		t.Fatalf("err = %v, want ErrFloodWait", floodErr)
	}
	// Advancing virtual time refills the budget.
	f.clock.Advance(2 * time.Minute)
	if _, err := c.Info(ctx, g.Code); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestHistoryPagerResumesAcrossFloodWait(t *testing.T) {
	f := newFixture(t, ServiceConfig{APIBudget: 5, APIWindow: time.Minute, FloodWaitSeconds: 5})
	g := f.pick(t, func(g *simworld.Group) bool {
		if !f.alive(g) {
			return false
		}
		n := len(f.world.Messages(g, 0, g.CreatedAt, f.clock.Now()))
		return n > 1500 && n < 30000 // needs multiple pages
	})
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	if _, err := c.Join(ctx, g.Code); err != nil {
		t.Fatal(err)
	}
	// Anchor the pager so the flood waits that advance the clock do not
	// move the window. The served pages must then equal the oracle's,
	// message for message, across boundaries that fall mid-day.
	horizon := f.clock.Now()
	want := pagedHistory(f.world, g, horizon, 1000)
	pager := c.HistoryPagerAt(g.Code, horizon)
	pages := 0
	for !pager.Done() {
		page, err := pager.Next(ctx)
		if errors.Is(err, ErrFloodWait) {
			f.clock.Advance(time.Minute)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			continue
		}
		if pages >= len(want) || len(page) != len(want[pages]) {
			t.Fatalf("page %d: %d messages, oracle has %d pages", pages, len(page), len(want))
		}
		for i, m := range page {
			wm := want[pages][i]
			u := f.world.UserByIdx(platform.Telegram, wm.AuthorIdx)
			if m.FromID != u.ID || !m.SentAt.Equal(wm.SentAt.Truncate(time.Millisecond)) || m.Type != wm.Type.String() || m.Text != wm.Text {
				t.Fatalf("page %d message %d: got %+v, oracle %+v", pages, i, m, wm)
			}
		}
		pages++
	}
	if pages != len(want) || pages < 2 {
		t.Fatalf("served %d pages, oracle has %d", pages, len(want))
	}
}

// pagedHistory is the oracle of the offset_date_ms protocol: it pages a
// chat's history, generated in a single call over the whole window,
// exactly as the endpoint must serve it. Each page holds the limit newest
// messages before the cursor, and the next cursor is the last message's
// millisecond.
func pagedHistory(w *simworld.World, g *simworld.Group, until time.Time, limit int) [][]simworld.Message {
	all := w.Messages(g, 0, g.CreatedAt, until)
	var pages [][]simworld.Message
	for {
		var page []simworld.Message
		for i := len(all) - 1; i >= 0 && len(page) < limit; i-- {
			page = append(page, all[i])
		}
		if len(page) > 0 {
			pages = append(pages, page)
		}
		if len(page) < limit {
			return pages
		}
		next := time.UnixMilli(page[len(page)-1].SentAt.UnixMilli())
		all = all[:len(all)-len(page)]
		for len(all) > 0 && !all[len(all)-1].SentAt.Before(next) {
			all = all[:len(all)-1]
		}
	}
}

// TestHistoryPageBytesAtMidDayOffsets fetches raw history pages at
// offsets that fall mid-day and holds each body byte-equal to the oracle
// page encoded the way the endpoint encodes it.
func TestHistoryPageBytesAtMidDayOffsets(t *testing.T) {
	f := newFixture(t, ServiceConfig{APIBudget: 1 << 20, APIWindow: time.Minute, FloodWaitSeconds: 1})
	now := f.clock.Now()
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(3, 5))
	fetched := 0
	for _, g := range f.world.Groups[platform.Telegram] {
		if fetched >= 24 {
			break
		}
		if !f.alive(g) || len(f.world.Messages(g, 0, g.CreatedAt, now)) < 200 {
			continue
		}
		if _, err := c.Join(ctx, g.Code); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			at := g.CreatedAt.Add(time.Duration(rng.Int64N(int64(now.Sub(g.CreatedAt))))).Truncate(time.Millisecond)
			var page []simworld.Message
			if pages := pagedHistory(f.world, g, at, 100); len(pages) > 0 {
				page = pages[0]
			}
			msgs := make([]messageJSON, len(page))
			for i, m := range page {
				u := f.world.UserByIdx(platform.Telegram, m.AuthorIdx)
				msgs[i] = messageJSON{FromID: u.ID, DateMS: m.SentAt.UnixMilli(), Type: m.Type.String(), Text: m.Text}
			}
			var next int64
			if len(page) == 100 {
				next = page[99].SentAt.UnixMilli()
			}
			want := appendHistoryResponse(nil, msgs, next, len(page) == 100)
			url := f.srv.URL + "/api/history/" + g.Code + "?limit=100&offset_date_ms=" + strconv.FormatInt(at.UnixMilli(), 10)
			req, _ := http.NewRequest(http.MethodGet, url, nil)
			req.Header.Set("X-TG-Account", "acct")
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
				t.Fatalf("%s offset %v:\n got %s\nwant %s", g.Code, at, got, want)
			}
			fetched++
		}
	}
	if fetched == 0 {
		t.Fatal("no pages fetched")
	}
}

// TestHistoryPagerRetryStartsFromEmptyPage: the first attempt at each page
// gets a body that decodes some rows and then fails (truncated, then a
// malformed row), and the retry gets the good page. Next must return
// exactly the good page: no rows of the failed attempt, and none left in
// the reused buffer by the previous, longer page.
func TestHistoryPagerRetryStartsFromEmptyPage(t *testing.T) {
	const next = 1586340000000
	encode := func(newestMS int64, n int, hasNext bool) []byte {
		b := []byte(historyOpen)
		for i := 0; i < n; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendHistoryMessage(b, uint64(1000+i%9), newestMS-int64(i)*60000, "text", "")
		}
		return appendHistoryEnd(b, next, hasNext)
	}
	offset := strconv.FormatInt(next, 10)
	good := map[string][]byte{"": encode(1586350000000, 100, true), offset: encode(next-60000, 30, false)}
	last := good[offset]
	bad := map[string][]byte{
		"": good[""][:len(good[""])*2/3],
		// Re-close the short page after a row whose from_id is a string.
		offset: append(slices.Clip(last[:bytes.LastIndexByte(last, ']')]), `,{"from_id":"x"}]}`...),
	}
	var mu sync.Mutex
	attempts := map[string]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		at := r.URL.Query().Get("offset_date_ms")
		mu.Lock()
		attempts[at]++
		first := attempts[at] == 1
		mu.Unlock()
		if first {
			w.Write(bad[at])
			return
		}
		w.Write(good[at])
	}))
	defer srv.Close()

	p := NewClient(srv.URL, "acct").HistoryPager("chat")
	for _, at := range []string{"", offset} {
		want, _, err := parseHistoryPage(nil, good[at], ids.NewInterner())
		if err != nil {
			t.Fatal(err)
		}
		if part, _, err := parseHistoryPage(nil, bad[at], ids.NewInterner()); err == nil || len(part) == 0 {
			t.Fatalf("offset=%q: bad body decodes %d rows, err %v; want some rows, then an error", at, len(part), err)
		}
		got, err := p.Next(context.Background())
		if err != nil {
			t.Fatalf("offset=%q: %v", at, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("offset=%q: Next returned %d messages, want the good page's %d", at, len(got), len(want))
		}
	}
	if !p.Done() {
		t.Fatal("pager not done after the last page")
	}
	if attempts[""] != 2 || attempts[offset] != 2 {
		t.Fatalf("attempts per page = %v, want 2 each", attempts)
	}
}
