package twitter

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
	"msgscope/internal/urlpat"
)

// linearSearch is the oracle for the search index: the Search API as a
// newest-first scan of everything published, filtered to the 7-day
// window, the pagination cursor, the query and the index's misses. The
// service served every page this way before it kept posting lists.
func linearSearch(published []*simworld.Tweet, missP float64, q string, count int,
	sinceID, maxID uint64, now time.Time) (page []*simworld.Tweet, nextMax uint64) {
	horizon := now.Add(-7 * 24 * time.Hour)
	for i := len(published) - 1; i >= 0; i-- {
		tw := published[i]
		if tw.CreatedAt.Before(horizon) {
			break
		}
		if maxID != 0 && tw.ID > maxID {
			continue
		}
		if tw.ID <= sinceID {
			continue
		}
		if !strings.Contains(tw.Text, q) {
			continue
		}
		if missHash(tw.ID) < missP {
			continue
		}
		if len(page) == count {
			nextMax = page[len(page)-1].ID - 1
			break
		}
		page = append(page, tw)
	}
	return page, nextMax
}

// searchCase is one search request: a query, a requested page size (0 =
// the service default) and the pagination cursor.
type searchCase struct {
	q              string
	count          int
	sinceID, maxID uint64
}

// serveSearch runs one request through the service's handler and returns
// the response body.
func serveSearch(t *testing.T, h http.Handler, c searchCase) []byte {
	t.Helper()
	v := url.Values{"q": {c.q}}
	if c.count > 0 {
		v.Set("count", strconv.Itoa(c.count))
	}
	if c.sinceID > 0 {
		v.Set("since_id", strconv.FormatUint(c.sinceID, 10))
	}
	if c.maxID > 0 {
		v.Set("max_id", strconv.FormatUint(c.maxID, 10))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/1.1/search/tweets.json?"+v.Encode(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", c, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// checkAgainstOracle asserts the index serves c the oracle's page: the
// same statuses in the same order and the same next max_id. With wire
// set it also serves c through the handler and holds the body equal to
// the reference rendering of the oracle's page, next_results and
// max_id_str included.
func checkAgainstOracle(t *testing.T, svc *Service, c searchCase, wire bool) {
	t.Helper()
	count := svc.cfg.SearchPageSize
	if c.count > 0 && c.count < count {
		count = c.count
	}
	want, wantNext := linearSearch(svc.published, svc.cfg.SearchMissP, c.q, count,
		c.sinceID, c.maxID, svc.clock.Now())
	got, gotNext := svc.search(c.q, count, c.sinceID, c.maxID)
	if !slices.Equal(got, want) || gotNext != wantNext {
		t.Fatalf("at %v, %+v:\n got %v next %d\nwant %v next %d",
			svc.clock.Now(), c, tweetIDs(got), gotNext, tweetIDs(want), wantNext)
	}
	if !wire {
		return
	}
	body := referenceSearchBody(t, want, wantNext, c.q)
	if got := serveSearch(t, svc.Handler(), c); !bytes.Equal(got, body) {
		t.Fatalf("at %v, %+v:\n got %.600s\nwant %.600s", svc.clock.Now(), c, got, body)
	}
}

func tweetIDs(tweets []*simworld.Tweet) []uint64 {
	out := make([]uint64, len(tweets))
	for i, tw := range tweets {
		out[i] = tw.ID
	}
	return out
}

// cursorIDs returns the since_id/max_id values worth probing around a
// published tweet: its own ID, its neighbours, and the first ID of its
// millisecond.
func cursorIDs(tw *simworld.Tweet) []uint64 {
	return []uint64{tw.ID, tw.ID - 1, tw.ID + 1, tw.ID >> 22 << 22}
}

// TestSearchIndexMatchesLinearScan steps a seed-42 world through the
// study window and beyond the 7-day horizon, and at every step compares
// the indexed search with the linear scan over random cursors and full
// next_results chains. Some queries are first searched late, so their
// posting lists are built over a long published prefix at once.
func TestSearchIndexMatchesLinearScan(t *testing.T) {
	w := simworld.New(simworld.DefaultConfig(42, 0.02))
	clock := simclock.New(w.Cfg.Start)
	cfg := DefaultServiceConfig()
	cfg.SearchRateLimit = 1 << 30
	if cfg.SearchMissP <= 0 {
		t.Fatal("default config has no index misses")
	}
	svc := NewService(w, clock, cfg)
	rng := rand.New(rand.NewPCG(42, 19))
	queries := append(urlpat.TrackTerms(), "discord", "zz&q")
	end := w.Cfg.Start.Add(time.Duration(w.Cfg.Days+8) * 24 * time.Hour)
	for step := 0; clock.Now().Before(end); step++ {
		clock.Advance(time.Duration(12+rng.IntN(36)) * time.Hour)
		svc.PublishUpTo(clock.Now())
		if len(svc.published) == 0 {
			continue
		}
		active := queries[:len(queries)-2]
		if step >= 12 {
			active = queries // "discord" and "zz&q" join late
		}
		for _, q := range active {
			for k := range 3 {
				c := searchCase{q: q, count: []int{0, 1, 3, 100}[rng.IntN(4)]}
				if rng.IntN(3) > 0 {
					cur := cursorIDs(svc.published[rng.IntN(len(svc.published))])
					c.sinceID = cur[rng.IntN(len(cur))]
				}
				if rng.IntN(3) > 0 {
					cur := cursorIDs(svc.published[rng.IntN(len(svc.published))])
					c.maxID = cur[rng.IntN(len(cur))]
				}
				checkAgainstOracle(t, svc, c, k == 0)
			}
			// One whole next_results chain, the way the client pages.
			c := searchCase{q: q, count: 100}
			for pages := 0; ; pages++ {
				checkAgainstOracle(t, svc, c, pages == 0)
				_, nextMax := linearSearch(svc.published, cfg.SearchMissP, q, 100, 0, c.maxID, clock.Now())
				if nextMax == 0 {
					break
				}
				c.maxID = nextMax
			}
		}
	}
}

// handBuiltWorld returns a world whose tweets defeat every shortcut
// that ignores how snowflakes are ordered. Tweets come in clusters that
// share a millisecond; within a cluster the IDs fall in publication
// order, which the world generator only rarely produces (IDs are
// numbered per group, then sorted by time). The clusters are 8 hours
// apart over 8 days, so a clock can put the 7-day horizon, or the end
// of what is published, inside a cluster as well as between two.
func handBuiltWorld(start time.Time) *simworld.World {
	texts := []string{"join t.me/abc", "discord.gg/xyz here", "t.me/q and discord.gg/r", "t.me/only"}
	var day []*simworld.Tweet
	seq := uint32(1 << 20)
	for k := 0; k < 24; k++ {
		at := start.Add(time.Duration(k)*8*time.Hour + time.Duration(k)*time.Millisecond)
		for j := 0; j < 4; j++ {
			seq -= 1 + uint32(k%2) // IDs fall within the millisecond
			day = append(day, &simworld.Tweet{
				ID:        ids.Snowflake(ids.TwitterEpochMS, at, seq),
				CreatedAt: at.Add(time.Duration(j) * time.Microsecond),
				Text:      texts[(k+j)%len(texts)],
				Lang:      "en",
				AuthorID:  "u" + strconv.Itoa(k),
			})
		}
	}
	return &simworld.World{TweetsByDay: [][]*simworld.Tweet{day}}
}

// TestSearchIndexSameMillisecond compares the indexed search with the
// linear scan over every since_id/max_id pair drawn from the hand-built
// world's IDs, at clocks that put the 7-day horizon inside clusters.
// Stopping the walk at the first ID <= since_id, rather than at the first
// earlier millisecond, loses the larger IDs published before it in the
// same millisecond, and this test fails.
func TestSearchIndexSameMillisecond(t *testing.T) {
	start := simclock.StudyStart
	w := handBuiltWorld(start)
	clock := simclock.New(start)
	cfg := DefaultServiceConfig()
	cfg.SearchRateLimit = 1 << 30
	cfg.SearchMissP = 0.1
	svc := NewService(w, clock, cfg)
	tweets := w.TweetsByDay[0]
	missed := 0
	for _, tw := range tweets {
		if missHash(tw.ID) < cfg.SearchMissP {
			missed++
		}
	}
	if missed == 0 || missed == len(tweets) {
		t.Fatalf("%d of %d tweets missed; want some", missed, len(tweets))
	}
	cursors := []uint64{0}
	for _, tw := range tweets {
		cursors = append(cursors, tw.ID, tw.ID>>22<<22)
	}
	slices.Sort(cursors)
	cursors = slices.Compact(cursors)
	for _, at := range []time.Duration{
		// Publication stops inside cluster 9; everything is in the window.
		9*8*time.Hour + 9*time.Millisecond + 1500*time.Nanosecond,
		// The horizon falls inside cluster 3.
		8*24*time.Hour + 3*time.Millisecond + 1500*time.Nanosecond,
		// The horizon falls between clusters 8 and 9.
		9*24*time.Hour + 16*time.Hour + 20*time.Millisecond,
	} {
		clock.AdvanceTo(start.Add(at))
		svc.PublishUpTo(clock.Now())
		for _, q := range []string{"t.me", "discord.gg"} {
			for _, count := range []int{1, 3, 100} {
				for _, sinceID := range cursors {
					for j, maxID := range cursors {
						wire := j%64 == 0
						checkAgainstOracle(t, svc, searchCase{q: q, count: count, sinceID: sinceID, maxID: maxID}, wire)
					}
				}
			}
		}
	}
}

// TestSearchNextResultsEscapesQuery pages a query that holds URL-reserved
// characters. next_results must carry it escaped, or page 2 on searches
// for whatever the unescaped cursor parses back to ("x" here).
func TestSearchNextResultsEscapesQuery(t *testing.T) {
	const q = "x&y +z#w"
	start := simclock.StudyStart
	var day []*simworld.Tweet
	for i := 0; i < 10; i++ {
		at := start.Add(time.Duration(i) * time.Minute)
		text := "x only"
		if i%2 == 0 {
			text = "see " + q + " now"
		}
		day = append(day, &simworld.Tweet{ID: ids.Snowflake(ids.TwitterEpochMS, at, uint32(i)),
			CreatedAt: at, Text: text, Lang: "en", AuthorID: "u"})
	}
	clock := simclock.New(start.Add(time.Hour))
	cfg := perfect()
	cfg.SearchPageSize = 2
	svc := NewService(&simworld.World{TweetsByDay: [][]*simworld.Tweet{day}}, clock, cfg)
	svc.PublishUpTo(clock.Now())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	got, err := NewClient(srv.URL).Search(context.Background(), q, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d statuses, want the 5 containing %q", len(got), q)
	}
	for i, st := range got {
		if want := day[8-2*i].ID; st.ID != want {
			t.Fatalf("status %d: ID %d %q, want %d", i, st.ID, st.Text, want)
		}
	}
}

// TestSearchRaceWithPublish runs every tracked term's search chain
// concurrently while the test goroutine advances the clock and publishes,
// then checks that each term's full chain matches the oracle. Run it
// under -race: the posting lists are walked outside the service lock.
func TestSearchRaceWithPublish(t *testing.T) {
	w := simworld.New(simworld.DefaultConfig(8, 0.002))
	clock := simclock.New(w.Cfg.Start)
	cfg := DefaultServiceConfig()
	cfg.SearchRateLimit = 1 << 30
	svc := NewService(w, clock, cfg)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cli := NewClient(srv.URL)
	ctx := context.Background()

	// Each publish step waits until some chain has finished a search
	// since the step before, so searches and publication interleave.
	stop, failed := make(chan struct{}), make(chan struct{})
	searched := make(chan struct{}, 1)
	var failOnce sync.Once
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		failOnce.Do(func() { close(failed) })
	}
	var wg sync.WaitGroup
	for _, term := range urlpat.TrackTerms() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var since uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := cli.Search(ctx, term, since, 50)
				if err != nil {
					fail("%s: %v", term, err)
					return
				}
				for i, st := range got {
					if st.ID <= since || (i > 0 && st.ID >= got[i-1].ID) || !strings.Contains(st.Text, term) {
						fail("%s since %d: status %d (%d) out of order or off-query", term, since, i, st.ID)
						return
					}
				}
				if len(got) > 0 {
					since = got[0].ID
				}
				select {
				case searched <- struct{}{}:
				default:
				}
			}
		}()
	}
publish:
	for range 4 * 24 * w.Cfg.Days {
		clock.Advance(15 * time.Minute)
		svc.PublishUpTo(clock.Now())
		select {
		case <-searched:
		case <-failed:
			break publish
		}
	}
	close(stop)
	wg.Wait()

	for _, term := range urlpat.TrackTerms() {
		got, err := cli.Search(ctx, term, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		var want []*simworld.Tweet
		for maxID := uint64(0); ; {
			page, next := linearSearch(svc.published, cfg.SearchMissP, term, 100, 0, maxID, clock.Now())
			want = append(want, page...)
			if next == 0 {
				break
			}
			maxID = next
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d statuses, oracle %d", term, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("%s: status %d is %d, oracle %d", term, i, got[i].ID, want[i].ID)
			}
		}
	}
}
