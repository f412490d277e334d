package simworld

import (
	"testing"
	"time"

	"msgscope/internal/platform"
)

func testWorld(t testing.TB, scale float64) *World {
	t.Helper()
	return New(DefaultConfig(42, scale))
}

func TestWorldDeterminism(t *testing.T) {
	a := New(DefaultConfig(7, 0.01))
	b := New(DefaultConfig(7, 0.01))
	for _, p := range platform.All {
		if len(a.Groups[p]) != len(b.Groups[p]) {
			t.Fatalf("%v: group counts differ: %d vs %d", p, len(a.Groups[p]), len(b.Groups[p]))
		}
		for i := range a.Groups[p] {
			ga, gb := a.Groups[p][i], b.Groups[p][i]
			if ga.Code != gb.Code || ga.Title != gb.Title || !ga.CreatedAt.Equal(gb.CreatedAt) ||
				!ga.RevokedAt.Equal(gb.RevokedAt) || ga.BaseMembers != gb.BaseMembers {
				t.Fatalf("%v group %d differs: %+v vs %+v", p, i, ga, gb)
			}
		}
	}
	for d := range a.TweetsByDay {
		if len(a.TweetsByDay[d]) != len(b.TweetsByDay[d]) {
			t.Fatalf("day %d tweet counts differ", d)
		}
		for i := range a.TweetsByDay[d] {
			if a.TweetsByDay[d][i].Text != b.TweetsByDay[d][i].Text {
				t.Fatalf("day %d tweet %d text differs", d, i)
			}
		}
	}
}

func TestWorldSeedsDiffer(t *testing.T) {
	a := New(DefaultConfig(1, 0.01))
	b := New(DefaultConfig(2, 0.01))
	if len(a.Groups[platform.WhatsApp]) > 0 && len(b.Groups[platform.WhatsApp]) > 0 &&
		a.Groups[platform.WhatsApp][0].Code == b.Groups[platform.WhatsApp][0].Code {
		t.Fatal("different seeds produced identical first group codes")
	}
}

func TestGroupVolumesScaleWithConfig(t *testing.T) {
	w := testWorld(t, 0.02)
	cfg := w.Cfg
	for _, p := range platform.All {
		pc := *w.platformCfg(p)
		want := pc.NewURLsPerDay * cfg.Scale * float64(cfg.Days)
		got := float64(len(w.Groups[p]))
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("%v: got %v groups, want about %v", p, got, want)
		}
	}
}

func TestRevocationCalibration(t *testing.T) {
	w := testWorld(t, 0.05)
	for _, p := range platform.All {
		pc := w.platformCfg(p)
		var revoked, quick int
		for _, g := range w.Groups[p] {
			if g.RevokedAt.IsZero() {
				continue
			}
			revoked++
			if g.RevokedAt.Sub(g.FirstShareAt) < 24*time.Hour {
				quick++
			}
		}
		n := float64(len(w.Groups[p]))
		wantTotal := pc.QuickDeathP + pc.SlowDeathP
		gotTotal := float64(revoked) / n
		if gotTotal < wantTotal-0.05 || gotTotal > wantTotal+0.05 {
			t.Errorf("%v: revoked fraction %.3f, want about %.3f", p, gotTotal, wantTotal)
		}
		gotQuick := float64(quick) / n
		if gotQuick < pc.QuickDeathP-0.05 || gotQuick > pc.QuickDeathP+0.05 {
			t.Errorf("%v: quick-death fraction %.3f, want about %.3f", p, gotQuick, pc.QuickDeathP)
		}
	}
}

func TestTweetsEmbedGroupURL(t *testing.T) {
	w := testWorld(t, 0.01)
	checked := 0
	for _, day := range w.TweetsByDay {
		for _, tw := range day {
			if tw.Group == nil {
				t.Fatal("platform tweet without group")
			}
			if !contains(tw.Text, tw.Group.URL) {
				t.Fatalf("tweet text %q does not embed URL %q", tw.Text, tw.Group.URL)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tweets generated")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMembersAtBounds(t *testing.T) {
	w := testWorld(t, 0.01)
	for _, p := range platform.All {
		cap := w.platformCfg(p).MemberCap
		for _, g := range w.Groups[p] {
			for d := 0; d < w.Cfg.Days; d += 7 {
				at := w.Cfg.Start.Add(time.Duration(d) * 24 * time.Hour)
				m := w.MembersAt(g, at)
				if m < 1 || m > cap {
					t.Fatalf("%v group %s members %d out of [1,%d]", p, g.Code, m, cap)
				}
				o := w.OnlineAt(g, at)
				if o < 0 || o > m {
					t.Fatalf("%v group %s online %d out of [0,%d]", p, g.Code, o, m)
				}
			}
		}
	}
}

func TestMembersAtDeterministic(t *testing.T) {
	w := testWorld(t, 0.01)
	g := w.Groups[platform.Discord][0]
	at := w.Cfg.Start.Add(5 * 24 * time.Hour)
	if w.MembersAt(g, at) != w.MembersAt(g, at) {
		t.Fatal("MembersAt not deterministic for same instant")
	}
}

func TestMessagesDeterministicAndWindowed(t *testing.T) {
	w := testWorld(t, 0.01)
	g := w.Groups[platform.WhatsApp][0]
	from := w.Cfg.Start
	to := from.Add(5 * 24 * time.Hour)
	a := w.Messages(g, 0, from, to)
	b := w.Messages(g, 0, from, to)
	if len(a) != len(b) {
		t.Fatalf("message counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d differs", i)
		}
		if a[i].SentAt.Before(from) || !a[i].SentAt.Before(to) {
			t.Fatalf("message %d at %v outside [%v, %v)", i, a[i].SentAt, from, to)
		}
	}
}

func TestMessagesSubWindowIsSubset(t *testing.T) {
	w := testWorld(t, 0.01)
	g := w.Groups[platform.Discord][0]
	from := w.Cfg.Start
	mid := from.Add(3 * 24 * time.Hour)
	to := from.Add(6 * 24 * time.Hour)
	for ch := 0; ch < g.Channels; ch++ {
		full := w.Messages(g, ch, from, to)
		first := w.Messages(g, ch, from, mid)
		second := w.Messages(g, ch, mid, to)
		if len(first)+len(second) != len(full) {
			t.Fatalf("channel %d: window split changes totals: %d + %d != %d", ch, len(first), len(second), len(full))
		}
	}
}

func TestUserByIdxStable(t *testing.T) {
	w := testWorld(t, 0.01)
	for _, p := range platform.All {
		u1 := w.UserByIdx(p, 17)
		u2 := w.UserByIdx(p, 17)
		if u1.ID != u2.ID || u1.Phone != u2.Phone || u1.Name != u2.Name {
			t.Fatalf("%v: UserByIdx not stable: %+v vs %+v", p, u1, u2)
		}
	}
}

func TestWhatsAppPIIAlwaysExposed(t *testing.T) {
	w := testWorld(t, 0.01)
	for i := 0; i < 50; i++ {
		u := w.UserByIdx(platform.WhatsApp, i)
		if u.Phone == "" || !u.PhoneVisible {
			t.Fatalf("WhatsApp user %d lacks exposed phone: %+v", i, u)
		}
	}
	for _, g := range w.Groups[platform.WhatsApp] {
		if g.CreatorPhone == "" || g.CreatorCountry == "" {
			t.Fatalf("WhatsApp group %s lacks creator phone/country", g.Code)
		}
	}
}

func TestTelegramPhoneOptInRare(t *testing.T) {
	w := testWorld(t, 0.01)
	visible := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if w.UserByIdx(platform.Telegram, i).PhoneVisible {
			visible++
		}
	}
	frac := float64(visible) / n
	if frac > 0.03 {
		t.Fatalf("Telegram visible-phone fraction %.4f too high (want ~0.0068)", frac)
	}
}

func TestDiscordLinkedAccounts(t *testing.T) {
	w := testWorld(t, 0.01)
	linked := 0
	const n = 4000
	for i := 0; i < n; i++ {
		u := w.UserByIdx(platform.Discord, i)
		if len(u.Linked) > 0 {
			linked++
		}
		if u.Phone != "" {
			t.Fatalf("Discord user %d has a phone number", i)
		}
	}
	frac := float64(linked) / n
	if frac < 0.22 || frac > 0.38 {
		t.Fatalf("Discord linked fraction %.3f, want about 0.30", frac)
	}
}

func TestStalenessCalibration(t *testing.T) {
	w := testWorld(t, 0.05)
	for _, p := range platform.All {
		pc := w.platformCfg(p)
		var sameDay, old int
		for _, g := range w.Groups[p] {
			stale := g.FirstShareAt.Sub(g.CreatedAt)
			if stale < 24*time.Hour {
				sameDay++
			}
			if stale > 365*24*time.Hour {
				old++
			}
		}
		n := float64(len(w.Groups[p]))
		if got := float64(sameDay) / n; got < pc.SameDayCreationP-0.06 || got > pc.SameDayCreationP+0.06 {
			t.Errorf("%v: same-day fraction %.3f, want about %.3f", p, got, pc.SameDayCreationP)
		}
		if got := float64(old) / n; got < pc.OldGroupP-0.05 || got > pc.OldGroupP+0.05 {
			t.Errorf("%v: old-group fraction %.3f, want about %.3f", p, got, pc.OldGroupP)
		}
	}
}

func TestWhatsAppGroupSizesUnderCap(t *testing.T) {
	w := testWorld(t, 0.05)
	atCap := 0
	gs := w.Groups[platform.WhatsApp]
	for _, g := range gs {
		if g.BaseMembers > 257 {
			t.Fatalf("WhatsApp group %s has %d members (> 257 cap)", g.Code, g.BaseMembers)
		}
		if g.BaseMembers >= 257 {
			atCap++
		}
	}
	frac := float64(atCap) / float64(len(gs))
	if frac > 0.12 {
		t.Errorf("too many WhatsApp groups at the cap: %.3f", frac)
	}
}

// TestEmergentTweetVolume checks that the per-day tweet volume emerging
// from NewURLsPerDay × share multiplicity lands near the configured
// TweetsPerDay calibration target (wide band: the share distribution is
// heavy-tailed).
func TestEmergentTweetVolume(t *testing.T) {
	w := testWorld(t, 0.05)
	perPlatform := map[platform.Platform]float64{}
	for _, day := range w.TweetsByDay {
		for _, tw := range day {
			perPlatform[tw.Group.Platform]++
		}
	}
	for _, p := range platform.All {
		want := w.platformCfg(p).TweetsPerDay * w.Cfg.Scale * float64(w.Cfg.Days)
		got := perPlatform[p]
		if got < want*0.45 || got > want*2.0 {
			t.Errorf("%v: %v tweets over window, calibration target %v", p, got, want)
		}
	}
}

// TestShareMultiplicityShape checks Figure 2's anchors: the single-share
// fraction per platform.
func TestShareMultiplicityShape(t *testing.T) {
	w := testWorld(t, 0.05)
	for _, p := range platform.All {
		pc := w.platformCfg(p)
		once, n := 0, 0
		for _, g := range w.Groups[p] {
			// Count only shares within the window (what a collector sees).
			if len(g.shares) == 1 {
				once++
			}
			n++
		}
		got := float64(once) / float64(n)
		if got < pc.SingleShareP-0.08 || got > pc.SingleShareP+0.12 {
			t.Errorf("%v: single-share fraction %.3f, config %.3f", p, got, pc.SingleShareP)
		}
	}
}

// TestCreatorIdentityStable verifies creators keep one country and phone
// across all their groups (the dedup key of the creators analysis).
func TestCreatorIdentityStable(t *testing.T) {
	w := testWorld(t, 0.05)
	byIdx := map[int]*Group{}
	for _, g := range w.Groups[platform.WhatsApp] {
		if prev, ok := byIdx[g.CreatorIdx]; ok {
			if prev.CreatorPhone != g.CreatorPhone || prev.CreatorCountry != g.CreatorCountry {
				t.Fatalf("creator %d has two identities: %s/%s vs %s/%s",
					g.CreatorIdx, prev.CreatorPhone, prev.CreatorCountry,
					g.CreatorPhone, g.CreatorCountry)
			}
		} else {
			byIdx[g.CreatorIdx] = g
		}
	}
}

// TestCreatorHeavyTail verifies the preferential-attachment reuse yields
// multi-group creators with a heavy tail (the paper: one user created 28
// WhatsApp groups, another 61 Discord groups).
func TestCreatorHeavyTail(t *testing.T) {
	w := testWorld(t, 0.05)
	for _, p := range []platform.Platform{platform.WhatsApp, platform.Discord} {
		counts := map[int]int{}
		for _, g := range w.Groups[p] {
			counts[g.CreatorIdx]++
		}
		single, max := 0, 0
		for _, n := range counts {
			if n == 1 {
				single++
			}
			if n > max {
				max = n
			}
		}
		singleShare := float64(single) / float64(len(counts))
		if singleShare < 0.85 || singleShare > 0.995 {
			t.Errorf("%v: single-group creator share %.3f, want ~0.93-0.96", p, singleShare)
		}
		if max < 3 {
			t.Errorf("%v: max groups per creator %d, want a heavy tail", p, max)
		}
	}
}

// TestSocialOnlyGroupsNeverTweet verifies the secondary-network-only slice
// really is invisible on Twitter.
func TestSocialOnlyGroupsNeverTweet(t *testing.T) {
	w := testWorld(t, 0.01)
	socialOnly := map[string]bool{}
	for _, p := range platform.All {
		for _, g := range w.Groups[p] {
			if g.SocialOnly {
				socialOnly[g.Code] = true
			}
		}
	}
	if len(socialOnly) == 0 {
		t.Fatal("no social-only groups generated")
	}
	for _, day := range w.TweetsByDay {
		for _, tw := range day {
			if socialOnly[tw.Group.Code] {
				t.Fatalf("social-only group %s appeared in a tweet", tw.Group.Code)
			}
		}
	}
	// But they do appear in the secondary network's feed.
	posted := map[string]bool{}
	for _, day := range w.PostsByDay {
		for _, p := range day {
			posted[p.Group.Code] = true
		}
	}
	found := 0
	for code := range socialOnly {
		if posted[code] {
			found++
		}
	}
	if found == 0 {
		t.Fatal("no social-only group has posts")
	}
}
