package join

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/platform/discord"
	"msgscope/internal/platform/telegram"
	"msgscope/internal/platform/whatsapp"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
	"msgscope/internal/store"
)

type fixture struct {
	world  *simworld.World
	clock  *simclock.Sim
	st     *store.Store
	joiner *Joiner
}

func newFixture(t *testing.T, tgCfg telegram.ServiceConfig) *fixture {
	t.Helper()
	w := simworld.New(simworld.DefaultConfig(13, 0.004))
	clock := simclock.New(w.Cfg.Start)
	clock.Advance(3 * 24 * time.Hour)
	waSrv := httptest.NewServer(whatsapp.NewService(w, clock).Handler())
	tgSrv := httptest.NewServer(telegram.NewService(w, clock, tgCfg).Handler())
	dcSrv := httptest.NewServer(discord.NewService(w, clock, discord.DefaultServiceConfig()).Handler())
	t.Cleanup(waSrv.Close)
	t.Cleanup(tgSrv.Close)
	t.Cleanup(dcSrv.Close)

	st := store.New()
	// Register every group shared so far as discovered.
	var id uint64
	for _, p := range platform.All {
		for _, g := range w.Groups[p] {
			if g.FirstShareAt.After(clock.Now()) {
				continue
			}
			id++
			st.AddTweet(store.TweetRecord{
				ID: id, CreatedAt: g.FirstShareAt, Platform: p, GroupCode: g.Code,
				Source: store.SourceSearch,
			})
		}
	}
	joiner := New(st,
		[]*whatsapp.Client{whatsapp.NewClient(waSrv.URL, "j0"), whatsapp.NewClient(waSrv.URL, "j1")},
		telegram.NewClient(tgSrv.URL, "jt"),
		discord.NewClient(dcSrv.URL, "jd"),
		clock, 77)
	return &fixture{world: w, clock: clock, st: st, joiner: joiner}
}

func TestSelectAndJoinMeetsTargets(t *testing.T) {
	f := newFixture(t, telegram.DefaultServiceConfig())
	targets := Targets{WhatsApp: 4, Telegram: 3, Discord: 3}
	if err := f.joiner.SelectAndJoin(context.Background(), targets); err != nil {
		t.Fatal(err)
	}
	if got := len(f.joiner.Joined(platform.WhatsApp)); got != 4 {
		t.Fatalf("joined %d WhatsApp groups, want 4", got)
	}
	if got := len(f.joiner.Joined(platform.Telegram)); got != 3 {
		t.Fatalf("joined %d Telegram groups, want 3", got)
	}
	if got := len(f.joiner.Joined(platform.Discord)); got != 3 {
		t.Fatalf("joined %d Discord groups, want 3", got)
	}
	// Join metadata recorded on the store.
	for _, p := range platform.All {
		for _, g := range f.joiner.Joined(p) {
			rec, _ := f.st.Group(p, g.Code)
			if !rec.Joined || rec.CreatedAt.IsZero() {
				t.Fatalf("join metadata missing for %v/%s: %+v", p, g.Code, rec)
			}
			if p == platform.Discord && rec.Channels == 0 {
				t.Fatal("Discord channels not recorded")
			}
		}
	}
}

func TestJoinSkipsDeadInvites(t *testing.T) {
	f := newFixture(t, telegram.DefaultServiceConfig())
	// Push the clock far so Discord's quick-death invites are mostly dead.
	f.clock.Advance(10 * 24 * time.Hour)
	if err := f.joiner.SelectAndJoin(context.Background(), Targets{Discord: 3}); err != nil {
		t.Fatal(err)
	}
	if f.joiner.Stats().DeadInvites == 0 {
		t.Fatal("no dead invites encountered on Discord after 13 days")
	}
	for _, g := range f.joiner.Joined(platform.Discord) {
		rec, _ := f.st.Group(platform.Discord, g.Code)
		if !rec.Joined {
			t.Fatal("joined group not marked")
		}
	}
}

func TestCollectMessagesAllPlatforms(t *testing.T) {
	f := newFixture(t, telegram.DefaultServiceConfig())
	ctx := context.Background()
	if err := f.joiner.SelectAndJoin(ctx, Targets{WhatsApp: 2, Telegram: 2, Discord: 2}); err != nil {
		t.Fatal(err)
	}
	// Let some post-join WhatsApp activity accumulate.
	f.clock.Advance(5 * 24 * time.Hour)
	if err := f.joiner.CollectMessages(ctx); err != nil {
		t.Fatal(err)
	}
	counts := map[platform.Platform]int{}
	msgs := f.st.Messages()
	for i, n := 0, msgs.Len(); i < n; i++ {
		counts[msgs.At(i).Platform]++
	}
	for _, p := range platform.All {
		if counts[p] == 0 {
			t.Errorf("%v: no messages collected", p)
		}
	}
	// WhatsApp messages never predate the join.
	joinAt := map[string]time.Time{}
	for _, g := range f.joiner.Joined(platform.WhatsApp) {
		rec, _ := f.st.Group(platform.WhatsApp, g.Code)
		joinAt[g.Code] = rec.JoinedAt
	}
	for i, n := 0, msgs.Len(); i < n; i++ {
		m := msgs.At(i)
		if m.Platform == platform.WhatsApp && m.SentAt.Before(joinAt[m.GroupCode]) {
			t.Fatal("WhatsApp message predates join")
		}
	}
	// Telegram/Discord history reaches back before the join.
	preJoin := false
	for i, n := 0, msgs.Len(); i < n; i++ {
		m := msgs.At(i)
		if m.Platform != platform.WhatsApp && m.SentAt.Before(f.world.Cfg.Start) {
			preJoin = true
			break
		}
	}
	if !preJoin {
		t.Error("no pre-study history collected from Telegram/Discord")
	}
	// Discord posters got profile fetches; some should expose links.
	dcUsers := 0
	for _, u := range f.st.Users() {
		if u.Platform == platform.Discord {
			dcUsers++
		}
	}
	if dcUsers == 0 {
		t.Error("no Discord users observed")
	}
}

func TestFloodWaitAdvancesClockAndSucceeds(t *testing.T) {
	f := newFixture(t, telegram.ServiceConfig{APIBudget: 4, APIWindow: time.Minute, FloodWaitSeconds: 30})
	ctx := context.Background()
	before := f.clock.Now()
	if err := f.joiner.SelectAndJoin(ctx, Targets{Telegram: 3}); err != nil {
		t.Fatal(err)
	}
	if f.joiner.Stats().FloodWaits == 0 {
		t.Fatal("tight budget produced no flood waits")
	}
	if !f.clock.Now().After(before) {
		t.Fatal("flood waits did not advance the virtual clock")
	}
	if got := len(f.joiner.Joined(platform.Telegram)); got != 3 {
		t.Fatalf("joined %d, want 3 despite flood waits", got)
	}
}

func TestMaxMessagesPerGroupCap(t *testing.T) {
	f := newFixture(t, telegram.DefaultServiceConfig())
	f.joiner.MaxMessagesPerGroup = 50
	ctx := context.Background()
	if err := f.joiner.SelectAndJoin(ctx, Targets{Telegram: 2, Discord: 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.joiner.CollectMessages(ctx); err != nil {
		t.Fatal(err)
	}
	perGroup := map[string]int{}
	msgs := f.st.Messages()
	for i, n := 0, msgs.Len(); i < n; i++ {
		m := msgs.At(i)
		perGroup[m.Platform.String()+"/"+m.GroupCode]++
	}
	for k, n := range perGroup {
		// Caps are applied per page flush, so allow one page of slack.
		if n > 50+1000 {
			t.Fatalf("group %s collected %d messages beyond cap", k, n)
		}
	}
}

func TestHiddenMemberListsCounted(t *testing.T) {
	f := newFixture(t, telegram.DefaultServiceConfig())
	if err := f.joiner.SelectAndJoin(context.Background(), Targets{Telegram: 8}); err != nil {
		t.Fatal(err)
	}
	st := f.joiner.Stats()
	// With HiddenMembersP=0.76, 8 joins should nearly surely hit one.
	if st.HiddenLists == 0 {
		t.Skip("no hidden member lists among sampled groups (unlucky draw)")
	}
}

// TestCollectedAuthorsRecordedOnce: WhatsApp and Telegram collection
// records each message author once per group, in first-seen order, and
// the store ends up exactly as if it had upserted one record per message
// (repeated upserts of an identical record merge to nothing).
func TestCollectedAuthorsRecordedOnce(t *testing.T) {
	f := newFixture(t, telegram.DefaultServiceConfig())
	ctx := context.Background()
	if err := f.joiner.SelectAndJoin(ctx, Targets{WhatsApp: 3, Telegram: 3}); err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(5 * 24 * time.Hour)
	horizon := f.clock.Now()
	var batches []gathered
	for _, g := range f.joiner.Joined(platform.WhatsApp) {
		ci, err := f.joiner.waClientFor(ctx, g.Code)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.joiner.fetchWhatsApp(ctx, g, ci, horizon)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, got)
	}
	for _, g := range f.joiner.Joined(platform.Telegram) {
		got, err := f.joiner.fetchTelegram(ctx, g, horizon)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, got)
	}
	deduped, perMessage := store.New(), store.New()
	repeats := 0
	for _, b := range batches {
		byKey := map[uint64]store.UserRecord{}
		var firstSeen []uint64
		var msgs []store.MessageRecord
		for _, page := range b.pages {
			msgs = append(msgs, page...)
		}
		for _, m := range msgs {
			if _, ok := byKey[m.AuthorKey]; !ok {
				byKey[m.AuthorKey] = store.UserRecord{}
				firstSeen = append(firstSeen, m.AuthorKey)
			}
		}
		if len(b.users) != len(firstSeen) {
			t.Fatalf("%d user records for %d distinct authors", len(b.users), len(firstSeen))
		}
		for i, u := range b.users {
			if u.Key != firstSeen[i] {
				t.Fatalf("user %d is %d, want first-seen author %d", i, u.Key, firstSeen[i])
			}
			byKey[u.Key] = u
		}
		// The former behaviour: one record per message.
		for _, m := range msgs {
			perMessage.UpsertUser(byKey[m.AuthorKey])
		}
		deduped.UpsertUserBatch(b.users)
		repeats += len(msgs) - len(b.users)
	}
	if repeats == 0 {
		t.Fatal("no author posted twice; the fixture does not exercise deduplication")
	}
	if !reflect.DeepEqual(deduped.Users(), perMessage.Users()) {
		t.Fatal("deduplicated author records change the store's users")
	}
}
