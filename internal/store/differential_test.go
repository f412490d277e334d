package store

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"msgscope/internal/platform"
)

// pointerGroupStore is the pre-columnar group layout — a map of heap
// records mutated through held pointers — reimplemented here as the
// reference model for the differential test. It replays the exact update
// semantics the old []*GroupRecord store had, so any byte of groups.jsonl
// the columnar layout produces differently is a migration bug, not a
// tolerated re-encoding.
type pointerGroupStore struct {
	seenTweets map[uint64]bool
	seenPosts  map[uint64]bool
	groups     map[groupKey]*GroupRecord
}

func newPointerGroupStore() *pointerGroupStore {
	return &pointerGroupStore{
		seenTweets: map[uint64]bool{},
		seenPosts:  map[uint64]bool{},
		groups:     map[groupKey]*GroupRecord{},
	}
}

func (ps *pointerGroupStore) upsert(p platform.Platform, code string, at time.Time) (*GroupRecord, bool) {
	k := groupKey{p, code}
	if g, ok := ps.groups[k]; ok {
		if at.Before(g.FirstSeen) {
			g.FirstSeen = at
		}
		if at.After(g.LastSeen) {
			g.LastSeen = at
		}
		return g, false
	}
	g := &GroupRecord{Platform: p, Code: code, FirstSeen: at, LastSeen: at}
	ps.groups[k] = g
	return g, true
}

func (ps *pointerGroupStore) addTweetBatch(batch []TweetIngest) {
	for i := range batch {
		t := &batch[i].Tweet
		if ps.seenTweets[t.ID] {
			continue
		}
		ps.seenTweets[t.ID] = true
		g, isNew := ps.upsert(t.Platform, t.GroupCode, t.CreatedAt)
		g.SeenTwitter = true
		g.Tweets++
		if isNew && batch[i].Canonical != "" {
			g.Canonical = batch[i].Canonical
		}
	}
}

func (ps *pointerGroupStore) addPost(p PostRecord) {
	if ps.seenPosts[p.ID] {
		return
	}
	ps.seenPosts[p.ID] = true
	g, _ := ps.upsert(p.Platform, p.GroupCode, p.CreatedAt)
	g.SeenSocial = true
	g.SocialPosts++
}

func (ps *pointerGroupStore) setCanonical(p platform.Platform, code, canonical string) {
	if g, ok := ps.groups[groupKey{p, code}]; ok {
		g.Canonical = canonical
	}
}

func (ps *pointerGroupStore) addObservation(p platform.Platform, code string, o Observation) {
	if g, ok := ps.groups[groupKey{p, code}]; ok {
		g.Observations = append(g.Observations, o)
		g.Deferred = false
		g.DeferReason = ""
	}
}

func (ps *pointerGroupStore) markJoined(p platform.Platform, code string, update func(*GroupRecord)) {
	if g, ok := ps.groups[groupKey{p, code}]; ok {
		g.Joined = true
		g.Deferred = false
		g.DeferReason = ""
		update(g)
	}
}

func (ps *pointerGroupStore) markDeferred(p platform.Platform, code, reason string) {
	if g, ok := ps.groups[groupKey{p, code}]; ok {
		g.Deferred = true
		g.DeferReason = reason
	}
}

// saveJSONL encodes the pointer layout exactly as the old Save did: sorted
// by (platform, code), one reflective json.Marshal per record per line.
func (ps *pointerGroupStore) saveJSONL(t *testing.T) []byte {
	t.Helper()
	keys := make([]groupKey, 0, len(ps.groups))
	for k := range ps.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].p != keys[j].p {
			return keys[i].p < keys[j].p
		}
		return keys[i].code < keys[j].code
	})
	var buf bytes.Buffer
	for _, k := range keys {
		b, err := json.Marshal(ps.groups[k])
		if err != nil {
			t.Fatalf("pointer-layout marshal: %v", err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// differentialWorkload drives both layouts through an identical randomized
// operation sequence covering every group mutation path: batched tweet
// ingest with duplicates, secondary-source posts, canonical rewrites,
// out-of-order observations, joins, and deferrals.
func differentialWorkload(t *testing.T, seed int64, s *Store, ps *pointerGroupStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	codes := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	plats := []platform.Platform{platform.WhatsApp, platform.Telegram, platform.Discord}

	pick := func() (platform.Platform, string) {
		return plats[rng.Intn(len(plats))], codes[rng.Intn(len(codes))]
	}
	var tweetID uint64
	for op := 0; op < 4000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // tweet batch with intra- and inter-batch duplicates
			n := 1 + rng.Intn(6)
			batch := make([]TweetIngest, n)
			for i := range batch {
				p, code := pick()
				if rng.Intn(4) == 0 && tweetID > 0 {
					// Replay an already-seen ID (the other API).
					batch[i].Tweet.ID = uint64(rng.Int63n(int64(tweetID))) + 1
				} else {
					tweetID++
					batch[i].Tweet.ID = tweetID
				}
				batch[i].Tweet.Platform = p
				batch[i].Tweet.GroupCode = code
				batch[i].Tweet.CreatedAt = base.Add(time.Duration(rng.Intn(100000)) * time.Second)
				batch[i].Tweet.Source = SourceSearch
				if rng.Intn(3) == 0 {
					batch[i].Canonical = "https://example.invalid/" + code
				}
			}
			s.AddTweetBatch(batch)
			ps.addTweetBatch(batch)
		case 4: // secondary-network post, sometimes a duplicate ID
			p, code := pick()
			post := PostRecord{
				ID:        uint64(rng.Int63n(500)) + 1,
				Platform:  p,
				GroupCode: code,
				CreatedAt: base.Add(time.Duration(rng.Intn(100000)) * time.Second),
			}
			s.AddPost(post)
			ps.addPost(post)
		case 5: // canonical rewrite (sometimes of an unknown group)
			p, code := pick()
			if rng.Intn(5) == 0 {
				code = "never-seen"
			}
			canon := "https://canon.invalid/" + code
			s.SetCanonical(p, code, canon)
			ps.setCanonical(p, code, canon)
		case 6, 7: // daily observation, alive or revoked
			p, code := pick()
			o := Observation{
				At:    base.Add(time.Duration(rng.Intn(40)) * 24 * time.Hour),
				Alive: rng.Intn(4) != 0,
			}
			if o.Alive {
				o.Title = "grp " + code
				o.Members = rng.Intn(5000)
				o.Online = rng.Intn(200)
				o.IsChannel = rng.Intn(6) == 0
				if p == platform.WhatsApp {
					o.CreatorPhoneH = HashPhone(code)
					o.CreatorCountry = "BR"
					o.CreatorKey = o.CreatorPhoneH
				}
				if rng.Intn(3) == 0 {
					o.CreatedAt = base.AddDate(-1, 0, rng.Intn(300))
				}
			}
			s.AddObservation(p, code, o)
			ps.addObservation(p, code, o)
		case 8: // join with metadata
			p, code := pick()
			at := base.Add(time.Duration(rng.Intn(100000)) * time.Second)
			members, channels := rng.Intn(10000), rng.Intn(30)
			hidden := rng.Intn(5) == 0
			upd := func(g *GroupRecord) {
				g.JoinedAt = at
				g.MemberCount = members
				g.Channels = channels
				g.HiddenMembers = hidden
				g.CreatorKey = "creator-" + code
			}
			s.MarkJoined(p, code, upd)
			ps.markJoined(p, code, upd)
		case 9: // deferral
			p, code := pick()
			s.MarkDeferred(p, code, "monitor")
			ps.markDeferred(p, code, "monitor")
		}
	}
}

// TestColumnarGroupsSaveMatchesPointerLayout replays one randomized
// workload into the columnar store and into the old pointer layout and
// requires the two groups.jsonl outputs to be byte-identical. This is the
// migration's ground-truth gate: the wire format, field ordering,
// omitempty behavior, zero-time round-trips, and observation order must
// all survive the SoA rewrite bit-for-bit.
func TestColumnarGroupsSaveMatchesPointerLayout(t *testing.T) {
	for _, seed := range []int64{1, 42, 4242} {
		s := New()
		ps := newPointerGroupStore()
		differentialWorkload(t, seed, s, ps)

		dir := t.TempDir()
		if err := s.Save(dir); err != nil {
			t.Fatalf("seed %d: Save: %v", seed, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "groups.jsonl"))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := ps.saveJSONL(t)
		if !bytes.Equal(got, want) {
			gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Fatalf("seed %d: groups.jsonl line %d differs\ncolumnar: %s\npointer:  %s",
						seed, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("seed %d: groups.jsonl length differs: columnar %d lines, pointer %d lines",
				seed, len(gl), len(wl))
		}
	}
}

// TestGroupStoreRaceHammer pounds the group family from concurrent
// writers (tweet batches, observations, joins, deferrals, canonical
// rewrites) while readers take lookups, counts, sorted views, and full
// snapshots. Run under -race this validates the lock protocol of the
// columnar group family: no torn column access, no rebuild racing a writer.
// Cross-row invariants are checked only after the writers quiesce —
// same-row read-during-write remains undefined, exactly as it was for the
// pointer layout.
func TestGroupStoreRaceHammer(t *testing.T) {
	s := New()
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	codes := []string{"alpha", "beta", "gamma", "delta"}
	plats := []platform.Platform{platform.WhatsApp, platform.Telegram, platform.Discord}

	const writers, readers, opsPer = 4, 3, 400
	var wg, rwg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for op := 0; op < opsPer; op++ {
				p := plats[rng.Intn(len(plats))]
				code := codes[rng.Intn(len(codes))]
				switch rng.Intn(5) {
				case 0:
					s.AddTweetBatch([]TweetIngest{{Tweet: TweetRecord{
						ID:        uint64(w*opsPer+op) + 1,
						Platform:  p,
						GroupCode: code,
						CreatedAt: base.Add(time.Duration(op) * time.Minute),
						Source:    SourceStream,
					}}})
				case 1:
					s.AddObservation(p, code, Observation{
						At: base.Add(time.Duration(op) * time.Hour), Alive: true,
						Members: op, Title: "t",
					})
				case 2:
					s.MarkJoined(p, code, func(g *GroupRecord) {
						g.JoinedAt = base
						g.MemberCount = op
					})
				case 3:
					s.MarkDeferred(p, code, "monitor")
				case 4:
					s.SetCanonical(p, code, "https://canon.invalid/"+code)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := plats[rng.Intn(len(plats))]
				code := codes[rng.Intn(len(codes))]
				if g, ok := s.Group(p, code); ok && g.Code != code {
					t.Errorf("lookup returned wrong record: %q != %q", g.Code, code)
					return
				}
				_ = s.CountsFor(p)
				_ = s.Groups().Len()
				_ = s.Snapshot(base, 3)
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	// Writers quiesced: the full dataset must now be internally
	// consistent — every record reconstructable, observation chains
	// intact and ordered as appended, snapshot equal to live reads.
	list := s.Groups()
	sn := s.Snapshot(base, 3)
	if sn.Groups.Len() != list.Len() {
		t.Fatalf("snapshot has %d groups, store has %d", sn.Groups.Len(), list.Len())
	}
	for i := 0; i < list.Len(); i++ {
		g := list.Record(i)
		if g.Code == "" {
			t.Fatalf("group %d reconstructed with empty code", i)
		}
		obs := list.Obs(i)
		if obs.Len() != len(g.Observations) {
			t.Fatalf("%v/%s: ObsList %d vs Record %d observations",
				g.Platform, g.Code, obs.Len(), len(g.Observations))
		}
		seen := 0
		obs.Each(func(o Observation) bool {
			if o != g.Observations[seen] {
				t.Fatalf("%v/%s: observation %d differs between walk and record",
					g.Platform, g.Code, seen)
			}
			seen++
			return true
		})
		if seen != obs.Len() {
			t.Fatalf("%v/%s: Each visited %d of %d", g.Platform, g.Code, seen, obs.Len())
		}
	}
}
