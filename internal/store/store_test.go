package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"msgscope/internal/platform"
)

var t0 = time.Date(2020, 4, 8, 12, 0, 0, 0, time.UTC)

func tweet(id uint64, p platform.Platform, code string, src TweetSource) TweetRecord {
	return TweetRecord{
		ID: id, UserID: "u1", CreatedAt: t0, Lang: "en",
		Platform: p, GroupCode: code, Source: src,
	}
}

func TestAddTweetDiscoversGroupsOnce(t *testing.T) {
	s := New()
	if !s.AddTweet(tweet(1, platform.WhatsApp, "g1", SourceSearch)) {
		t.Fatal("first tweet should discover the group")
	}
	if s.AddTweet(tweet(2, platform.WhatsApp, "g1", SourceSearch)) {
		t.Fatal("second tweet should not rediscover")
	}
	g, ok := s.Group(platform.WhatsApp, "g1")
	if !ok || g.Tweets != 2 {
		t.Fatalf("group record wrong: %+v", g)
	}
}

func TestAddTweetMergesSources(t *testing.T) {
	s := New()
	s.AddTweet(tweet(1, platform.Discord, "g", SourceSearch))
	s.AddTweet(tweet(1, platform.Discord, "g", SourceStream)) // duplicate ID
	tweets := s.Tweets()
	if tweets.Len() != 1 {
		t.Fatalf("%d tweets stored, want 1", tweets.Len())
	}
	if tweets.At(0).Source != SourceSearch|SourceStream {
		t.Fatalf("sources not merged: %v", tweets.At(0).Source)
	}
	if g, _ := s.Group(platform.Discord, "g"); g.Tweets != 1 {
		t.Fatalf("duplicate inflated tweet count: %d", g.Tweets)
	}
}

func TestFirstLastSeen(t *testing.T) {
	s := New()
	later := tweet(2, platform.Telegram, "g", SourceSearch)
	later.CreatedAt = t0.Add(time.Hour)
	s.AddTweet(later)
	earlier := tweet(1, platform.Telegram, "g", SourceSearch)
	s.AddTweet(earlier)
	g, _ := s.Group(platform.Telegram, "g")
	if !g.FirstSeen.Equal(t0) || !g.LastSeen.Equal(t0.Add(time.Hour)) {
		t.Fatalf("first/last wrong: %+v", g)
	}
}

func TestObservationsAndJoin(t *testing.T) {
	s := New()
	s.AddTweet(tweet(1, platform.WhatsApp, "g", SourceStream))
	s.AddObservation(platform.WhatsApp, "g", Observation{At: t0, Alive: true, Members: 5})
	s.MarkJoined(platform.WhatsApp, "g", func(g *GroupRecord) {
		g.JoinedAt = t0.Add(time.Hour)
		g.MemberCount = 5
	})
	g, _ := s.Group(platform.WhatsApp, "g")
	if len(g.Observations) != 1 || !g.Joined || g.MemberCount != 5 {
		t.Fatalf("group record wrong: %+v", g)
	}
	// Unknown groups are a no-op, not a panic.
	s.AddObservation(platform.WhatsApp, "nope", Observation{})
	s.MarkJoined(platform.WhatsApp, "nope", func(*GroupRecord) {})
}

func TestUpsertUserMerging(t *testing.T) {
	s := New()
	s.UpsertUser(UserRecord{Platform: platform.WhatsApp, Key: 1, PhoneHash: "h", Country: "BR", Creator: true})
	s.UpsertUser(UserRecord{Platform: platform.WhatsApp, Key: 1}) // seen as member later
	users := s.Users()
	if len(users) != 1 {
		t.Fatalf("%d users, want 1", len(users))
	}
	u := users[0]
	if u.PhoneHash != "h" || u.Country != "BR" {
		t.Fatalf("merge lost fields: %+v", u)
	}
	if u.Creator {
		t.Fatal("member sighting should clear creator-only flag")
	}
}

func TestUpsertUserLinkedMerge(t *testing.T) {
	s := New()
	s.UpsertUser(UserRecord{Platform: platform.Discord, Key: 2, Linked: []string{"Twitch"}})
	s.UpsertUser(UserRecord{Platform: platform.Discord, Key: 2, Linked: []string{"Steam", "Twitch"}})
	u := s.Users()[0]
	if len(u.Linked) != 2 {
		t.Fatalf("linked merge wrong: %v", u.Linked)
	}
}

func TestCountsFor(t *testing.T) {
	s := New()
	s.AddTweet(tweet(1, platform.Telegram, "a", SourceSearch))
	s.AddTweet(tweet(2, platform.Telegram, "b", SourceSearch))
	s.AddMessage(MessageRecord{Platform: platform.Telegram, GroupCode: "a", AuthorKey: 9, SentAt: t0})
	s.AddMessage(MessageRecord{Platform: platform.Telegram, GroupCode: "a", AuthorKey: 9, SentAt: t0})
	c := s.CountsFor(platform.Telegram)
	if c.Tweets != 2 || c.GroupURLs != 2 || c.Messages != 2 || c.MessageUsers != 1 {
		t.Fatalf("counts wrong: %+v", c)
	}
	if z := s.CountsFor(platform.Discord); z.Tweets != 0 {
		t.Fatalf("cross-platform leak: %+v", z)
	}
}

func TestGroupsSortedDeterministically(t *testing.T) {
	s := New()
	s.AddTweet(tweet(1, platform.Discord, "zz", SourceSearch))
	s.AddTweet(tweet(2, platform.WhatsApp, "aa", SourceSearch))
	s.AddTweet(tweet(3, platform.Discord, "aa", SourceSearch))
	gs := s.Groups()
	if gs.Len() != 3 {
		t.Fatalf("%d groups", gs.Len())
	}
	if gs.At(0).Platform != platform.WhatsApp || gs.At(1).Code != "aa" || gs.At(2).Code != "zz" {
		t.Fatalf("order wrong: %v %v %v", gs.At(0), gs.At(1), gs.At(2))
	}
}

func TestHashPhoneOneWayAndStable(t *testing.T) {
	a := HashPhone("+5511999999999")
	b := HashPhone("+5511999999999")
	c := HashPhone("+5511999999998")
	if a != b {
		t.Fatal("hash unstable")
	}
	if a == c {
		t.Fatal("hash collision on different phones")
	}
	if len(a) != 64 {
		t.Fatalf("hash length %d", len(a))
	}
}

func TestPhoneKeyProperty(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return PhoneKey(a) == PhoneKey(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	s := New()
	s.AddTweet(tweet(1, platform.WhatsApp, "g1", SourceSearch))
	s.AddTweet(tweet(2, platform.Discord, "g2", SourceStream))
	s.AddControl(ControlRecord{ID: 9, UserID: "c", CreatedAt: t0, Lang: "ja", Hashtags: 1})
	s.AddObservation(platform.WhatsApp, "g1", Observation{At: t0, Alive: true, Members: 7})
	s.MarkJoined(platform.WhatsApp, "g1", func(g *GroupRecord) { g.MemberCount = 7 })
	s.AddMessage(MessageRecord{Platform: platform.WhatsApp, GroupCode: "g1", AuthorKey: 3, SentAt: t0, Type: platform.Sticker})
	s.UpsertUser(UserRecord{Platform: platform.WhatsApp, Key: 3, PhoneHash: "h", Country: "BR"})

	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Tweets().Len() != 2 || loaded.Control().Len() != 1 ||
		loaded.Messages().Len() != 1 || len(loaded.Users()) != 1 {
		t.Fatalf("loaded counts wrong: %d %d %d %d", loaded.Tweets().Len(),
			loaded.Control().Len(), loaded.Messages().Len(), len(loaded.Users()))
	}
	g, ok := loaded.Group(platform.WhatsApp, "g1")
	if !ok || !g.Joined || g.MemberCount != 7 || len(g.Observations) != 1 {
		t.Fatalf("loaded group wrong: %+v", g)
	}
	if loaded.Messages().At(0).Type != platform.Sticker {
		t.Fatal("message type lost")
	}
	if loaded.Users()[0].PhoneHash != "h" {
		t.Fatal("user phone hash lost")
	}
}

func TestLoadMissingDirIsEmpty(t *testing.T) {
	s, err := Load(filepath.Join(t.TempDir(), "missing"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Tweets().Len() != 0 {
		t.Fatal("missing dir should load empty")
	}
}

func TestAddPostDiscoveryAndDedup(t *testing.T) {
	s := New()
	p1 := PostRecord{ID: 1, Author: "a", CreatedAt: t0, Platform: platform.Discord, GroupCode: "g"}
	if !s.AddPost(p1) {
		t.Fatal("first post should discover the group")
	}
	if s.AddPost(p1) {
		t.Fatal("duplicate post rediscovered")
	}
	if s.AddPost(PostRecord{ID: 2, Author: "b", CreatedAt: t0, Platform: platform.Discord, GroupCode: "g"}) {
		t.Fatal("second post on same group should not rediscover")
	}
	g, _ := s.Group(platform.Discord, "g")
	if !g.SeenSocial || g.SeenTwitter || g.SocialPosts != 2 {
		t.Fatalf("group bookkeeping wrong: %+v", g)
	}
	// A later tweet marks the group as seen on Twitter too, not as new.
	if s.AddTweet(tweet(9, platform.Discord, "g", SourceSearch)) {
		t.Fatal("tweet on social-discovered group counted as new")
	}
	if g, _ := s.Group(platform.Discord, "g"); !g.SeenTwitter || !g.SeenSocial {
		t.Fatalf("cross-source flags wrong: %+v", g)
	}
}

func TestPostsPersistAcrossSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	s := New()
	s.AddPost(PostRecord{ID: 5, Author: "x", CreatedAt: t0, Platform: platform.Telegram, GroupCode: "tg", Text: "t"})
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Posts()) != 1 || loaded.Posts()[0].Author != "x" {
		t.Fatalf("posts lost on reload: %+v", loaded.Posts())
	}
}

// TestAddObservationBatchMatchesPerCall runs the same daily sweeps into two
// stores, one probe per AddObservation call and one batch per
// AddObservationBatch call (deferrals marked per probe in both, as the
// monitor does), and requires the same snapshot and the same saved
// dataset.
func TestAddObservationBatchMatchesPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	plats := []platform.Platform{platform.WhatsApp, platform.Telegram, platform.Discord}
	perCall, batched := New(), New()
	var tweets []TweetIngest
	for _, p := range plats {
		for i := 0; i < 12; i++ {
			tweets = append(tweets, TweetIngest{Tweet: tweet(uint64(len(tweets)+1), p, fmt.Sprintf("g%02d", i), SourceSearch)})
		}
	}
	perCall.AddTweetBatch(tweets)
	batched.AddTweetBatch(tweets)

	for day := 0; day < 10; day++ {
		at := t0.AddDate(0, 0, day)
		for _, p := range plats {
			var codes []string
			var obs []Observation
			for _, i := range rng.Perm(13) {
				code := fmt.Sprintf("g%02d", i) // g12 was never discovered
				if rng.Intn(5) == 0 {
					perCall.MarkDeferred(p, code, "monitor")
					batched.MarkDeferred(p, code, "monitor")
					continue
				}
				o := Observation{At: at, Alive: rng.Intn(6) != 0}
				if o.Alive {
					o.Title, o.Members, o.Online = "title "+code, rng.Intn(500), rng.Intn(50)
				}
				perCall.AddObservation(p, code, o)
				codes, obs = append(codes, code), append(obs, o)
				if rng.Intn(4) == 0 { // end of a worker's batch
					batched.AddObservationBatch(p, codes, obs)
					codes, obs = codes[:0], obs[:0]
				}
			}
			batched.AddObservationBatch(p, codes, obs)
		}
	}

	a, b := perCall.Snapshot(t0, 10).Groups, batched.Snapshot(t0, 10).Groups
	if a.Len() != b.Len() || a.Len() != len(tweets) {
		t.Fatalf("%d and %d groups, want %d", a.Len(), b.Len(), len(tweets))
	}
	for i := 0; i < a.Len(); i++ {
		if ra, rb := a.Record(i), b.Record(i); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("group %d: per call %+v, batched %+v", i, ra, rb)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := perCall.Save(dirA); err != nil {
		t.Fatal(err)
	}
	if err := batched.Save(dirB); err != nil {
		t.Fatal(err)
	}
	ga, errA := os.ReadFile(filepath.Join(dirA, "groups.jsonl"))
	gb, errB := os.ReadFile(filepath.Join(dirB, "groups.jsonl"))
	if errA != nil || errB != nil || !bytes.Equal(ga, gb) {
		t.Fatalf("groups.jsonl differs (%v, %v)", errA, errB)
	}
}

// messagePages returns one page per size, with groups, authors and types
// spread over every platform and a body on every fifth row.
func messagePages(sizes ...int) [][]MessageRecord {
	rng := rand.New(rand.NewSource(11))
	plats := []platform.Platform{platform.WhatsApp, platform.Telegram, platform.Discord}
	var pages [][]MessageRecord
	n := 0
	for _, size := range sizes {
		page := make([]MessageRecord, size)
		for i := range page {
			page[i] = MessageRecord{
				Platform:  plats[rng.Intn(len(plats))],
				GroupCode: fmt.Sprintf("g%02d", rng.Intn(40)),
				AuthorKey: uint64(rng.Intn(500)),
				SentAt:    t0.Add(time.Duration(n) * time.Minute),
				Type:      platform.MessageType(rng.Intn(6)),
			}
			if n%5 == 0 {
				page[i].Text = fmt.Sprintf("body %d", n)
			}
			n++
		}
		pages = append(pages, page)
	}
	return pages
}

// TestAddMessageBatchPagesMatchSingleCalls: pages handed to one
// AddMessageBatch call store the same rows, in the same order, as one call
// per page, and an empty unbudgeted store sizes its fixed-width message
// columns once, exactly. 8192 rows make every column's byte size a whole
// allocation size class, so an exact reservation shows as cap == len.
func TestAddMessageBatchPagesMatchSingleCalls(t *testing.T) {
	pages := messagePages(3000, 0, 3000, 2192)
	oneCall, perPage := New(), New()
	oneCall.AddMessageBatch(pages...)
	for _, page := range pages {
		perPage.AddMessageBatch(page)
	}

	a, b := oneCall.Snapshot(t0, 10), perPage.Snapshot(t0, 10)
	lists := map[string][2]MessageList{"all": {a.Messages, b.Messages}}
	for _, p := range platform.All {
		lists[p.String()] = [2]MessageList{a.MessagesOf(p), b.MessagesOf(p)}
		if a.CountsFor(p) != b.CountsFor(p) {
			t.Fatalf("%v: counts %+v in one call, %+v per page", p, a.CountsFor(p), b.CountsFor(p))
		}
	}
	for name, l := range lists {
		if l[0].Len() != l[1].Len() {
			t.Fatalf("%s: %d messages in one call, %d per page", name, l[0].Len(), l[1].Len())
		}
		for i := 0; i < l[0].Len(); i++ {
			if ma, mb := l[0].At(i), l[1].At(i); ma != mb {
				t.Fatalf("%s message %d: one call %+v, per page %+v", name, i, ma, mb)
			}
		}
	}
	if n := a.Messages.Len(); n != 8192 {
		t.Fatalf("%d messages, want 8192", n)
	}

	c := &oneCall.msgs
	for name, lc := range map[string][2]int{
		"plat":   {len(c.plat), cap(c.plat)},
		"group":  {len(c.group), cap(c.group)},
		"author": {len(c.author), cap(c.author)},
		"sent":   {len(c.sent), cap(c.sent)},
		"typ":    {len(c.typ), cap(c.typ)},
	} {
		if lc[0] != lc[1] {
			t.Errorf("%s column: len %d, cap %d after one ingest into an empty store", name, lc[0], lc[1])
		}
	}
}

// TestAddMessageBatchSealsMidIngest: under a memory budget one
// AddMessageBatch call still seals after every page that takes the family
// past half the budget, and the rows it sealed read back as an unbudgeted
// store holds them.
func TestAddMessageBatchSealsMidIngest(t *testing.T) {
	pages := messagePages(3000, 3000, 2192)
	plain, budgeted := New(), New()
	plain.AddMessageBatch(pages...)
	// The smallest page's fixed-width columns alone (22 bytes a row): every
	// page takes the family past half the budget.
	if err := budgeted.EnableSpill(SpillConfig{Dir: t.TempDir(), Budget: 2192 * 22}); err != nil {
		t.Fatal(err)
	}
	budgeted.AddMessageBatch(pages...)
	if st := budgeted.SpillStats(); st.Segments != len(pages) {
		t.Fatalf("one ingest of %d pages sealed %d segments, want one per page", len(pages), st.Segments)
	}
	compareSaveDirs(t, saveStore(t, plain), saveStore(t, budgeted))
}
