package whatsapp

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

type fixture struct {
	world *simworld.World
	clock *simclock.Sim
	srv   *httptest.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := simworld.New(simworld.DefaultConfig(3, 0.01))
	clock := simclock.New(w.Cfg.Start)
	// Park the clock mid-study so early groups have lived and some died.
	clock.Advance(10 * 24 * time.Hour)
	svc := NewService(w, clock)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return &fixture{world: w, clock: clock, srv: srv}
}

// aliveGroup finds a group alive at the clock's current time and already
// shared (discovered).
func (f *fixture) aliveGroup(t *testing.T) *simworld.Group {
	t.Helper()
	now := f.clock.Now()
	for _, g := range f.world.Groups[platform.WhatsApp] {
		if f.world.AliveAt(g, now.Add(48*time.Hour)) && g.FirstShareAt.Before(now) {
			return g
		}
	}
	t.Fatal("no alive WhatsApp group in fixture")
	return nil
}

func (f *fixture) deadGroup(t *testing.T) *simworld.Group {
	t.Helper()
	now := f.clock.Now()
	for _, g := range f.world.Groups[platform.WhatsApp] {
		if !g.RevokedAt.IsZero() && g.RevokedAt.Before(now) {
			return g
		}
	}
	t.Fatal("no dead WhatsApp group in fixture")
	return nil
}

func TestLandingPageScrape(t *testing.T) {
	f := newFixture(t)
	g := f.aliveGroup(t)
	c := NewClient(f.srv.URL, "acct")
	l, err := c.ProbeInvite(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Alive {
		t.Fatal("landing page reports revoked for alive group")
	}
	if l.Title != g.Title {
		t.Fatalf("scraped title %q, want %q", l.Title, g.Title)
	}
	if l.CreatorPhone != g.CreatorPhone {
		t.Fatalf("scraped phone %q, want %q", l.CreatorPhone, g.CreatorPhone)
	}
	if l.CreatorCountry != g.CreatorCountry {
		t.Fatalf("scraped country %q, want %q", l.CreatorCountry, g.CreatorCountry)
	}
	if want := f.world.MembersAt(g, f.clock.Now()); l.Members != want {
		t.Fatalf("scraped members %d, want %d", l.Members, want)
	}
}

func TestLandingPageRevoked(t *testing.T) {
	f := newFixture(t)
	g := f.deadGroup(t)
	c := NewClient(f.srv.URL, "acct")
	l, err := c.ProbeInvite(context.Background(), g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if l.Alive {
		t.Fatal("revoked group reported alive")
	}
}

func TestLandingPageUnknownCode(t *testing.T) {
	f := newFixture(t)
	c := NewClient(f.srv.URL, "acct")
	_, err := c.ProbeInvite(context.Background(), "NoSuchCode123")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestJoinAndMembership(t *testing.T) {
	f := newFixture(t)
	g := f.aliveGroup(t)
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()

	if _, err := c.Info(ctx, g.Code); !errors.Is(err, ErrNotMember) {
		t.Fatalf("pre-join Info err = %v, want ErrNotMember", err)
	}
	joinedAt, err := c.Join(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !joinedAt.Equal(f.clock.Now()) {
		t.Fatalf("joinedAt %v, want %v", joinedAt, f.clock.Now())
	}
	info, err := c.Info(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if !info.CreatedAt.Equal(g.CreatedAt.Truncate(time.Millisecond)) {
		t.Fatalf("creation date %v, want %v", info.CreatedAt, g.CreatedAt)
	}
	members, err := c.Members(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) == 0 {
		t.Fatal("no members returned")
	}
	for _, m := range members {
		if m.Phone == "" {
			t.Fatal("member without exposed phone (WhatsApp exposes all)")
		}
	}
}

func TestJoinRevoked(t *testing.T) {
	f := newFixture(t)
	g := f.deadGroup(t)
	c := NewClient(f.srv.URL, "acct")
	if _, err := c.Join(context.Background(), g.Code); !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v, want ErrRevoked", err)
	}
}

func TestMessagesOnlyAfterJoin(t *testing.T) {
	f := newFixture(t)
	g := f.aliveGroup(t)
	c := NewClient(f.srv.URL, "acct")
	ctx := context.Background()
	joinedAt, err := c.Join(ctx, g.Code)
	if err != nil {
		t.Fatal(err)
	}
	f.clock.Advance(3 * 24 * time.Hour)
	msgs, err := c.Messages(ctx, g.Code, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.SentAt.Before(joinedAt) {
			t.Fatalf("message at %v predates join %v", m.SentAt, joinedAt)
		}
	}
	// The group had history before the join that must not be visible:
	// the world holds messages from its creation, the API returns none.
	pre := f.world.Messages(g, 0, g.CreatedAt, joinedAt)
	if len(pre) > 0 && len(msgs) >= len(pre)+len(f.world.Messages(g, 0, joinedAt, f.clock.Now()))+1 {
		t.Fatal("pre-join history leaked")
	}
}

func TestJoinCapBansAccount(t *testing.T) {
	f := newFixture(t)
	c := NewClient(f.srv.URL, "greedy")
	ctx := context.Background()
	joined, banned := 0, false
	for _, g := range f.world.Groups[platform.WhatsApp] {
		if !f.world.AliveAt(g, f.clock.Now()) {
			continue
		}
		_, err := c.Join(ctx, g.Code)
		switch {
		case err == nil:
			joined++
		case errors.Is(err, ErrBanned):
			banned = true
		default:
			t.Fatal(err)
		}
		if banned {
			break
		}
	}
	if !banned {
		t.Skipf("fixture too small to hit the join cap (joined %d)", joined)
	}
	if joined < 250 || joined > 300 {
		t.Fatalf("ban after %d joins, want between 250 and 300", joined)
	}
}

func TestScrapeLandingMalformed(t *testing.T) {
	if _, err := scrapeLanding("<html><body>garbage</body></html>"); err == nil {
		t.Fatal("malformed landing page should error")
	}
}
