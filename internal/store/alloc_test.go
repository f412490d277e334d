package store

import (
	"testing"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
)

// Hard allocation bounds on the steady-state ingest paths. These are
// regression gates, not benchmarks: the struct map keys make re-ingest
// and lookup allocation-free, and these tests fail if a future change
// reintroduces a per-record allocation.

func tweetBatchFor(n int) []TweetIngest {
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]TweetIngest, n)
	for i := range batch {
		batch[i] = TweetIngest{Tweet: TweetRecord{
			ID:        uint64(i + 1),
			UserID:    "u1",
			CreatedAt: base.Add(time.Duration(i) * time.Second),
			Platform:  platform.WhatsApp,
			GroupCode: "shared-group",
			Source:    SourceSearch,
		}}
	}
	return batch
}

func TestAddTweetBatchDuplicateAllocFree(t *testing.T) {
	s := New()
	batch := tweetBatchFor(64)
	s.AddTweetBatch(batch)

	// Re-ingesting the same batch (the other API seeing the same tweets)
	// only merges source bits and must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		s.AddTweetBatch(batch)
	})
	if allocs > 0 {
		t.Errorf("AddTweetBatch duplicate re-ingest allocated %.1f objects/op, want 0", allocs)
	}
}

func TestUpsertUserBatchSteadyStateAllocFree(t *testing.T) {
	s := New()
	batch := make([]UserRecord, 64)
	for i := range batch {
		batch[i] = UserRecord{
			Platform:  platform.WhatsApp,
			Key:       uint64(i + 1),
			PhoneHash: "abcd",
			Country:   "BR",
		}
	}
	s.UpsertUserBatch(batch)

	// Merging already-known users (the daily sweep re-observing the same
	// members, with no new linked accounts) must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		s.UpsertUserBatch(batch)
	})
	if allocs > 0 {
		t.Errorf("UpsertUserBatch steady-state merge allocated %.1f objects/op, want 0", allocs)
	}
}

func TestGroupLookupAllocFree(t *testing.T) {
	s := New()
	s.AddTweetBatch(tweetBatchFor(4))

	// Group lookups and flag updates key the map with a struct, so the
	// monitor/join phases probe without building a "platform/code" string.
	// A record without observations materializes entirely on the stack.
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Group(platform.WhatsApp, "shared-group"); !ok {
			t.Fatal("group missing")
		}
		s.MarkDeferred(platform.WhatsApp, "shared-group", "monitor")
	})
	if allocs > 0 {
		t.Errorf("group lookup allocated %.1f objects/op, want 0", allocs)
	}
}

// TestU64MapSteadyStateAllocFree gates the compact dedup index the tweet
// and post paths key on: probing a resident table (hit or miss) and
// overwriting existing keys must not allocate. Only an insert that trips
// the 90% load factor allocates (the doubled backing array).
func TestU64MapSteadyStateAllocFree(t *testing.T) {
	m := ids.NewU64Map(0)
	for i := uint64(1); i <= 4096; i++ {
		m.Put(i, uint32(i))
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(1); i <= 4096; i++ {
			if v, ok := m.Get(i); !ok || v != uint32(i) {
				t.Fatal("resident key missing")
			}
			m.Put(i, uint32(i)) // in-place overwrite
		}
		if _, ok := m.Get(1 << 60); ok {
			t.Fatal("phantom key")
		}
	})
	if allocs > 0 {
		t.Errorf("U64Map steady-state probing allocated %.1f objects/op, want 0", allocs)
	}
}

// TestGroupObservationAppendAllocFree gates the monitor's hottest write:
// appending a daily probe to a warm group's observation columns. Sweep
// fields are scalars or strings the interning table already holds (titles
// repeat day over day), so past amortized column growth the append itself
// must not allocate.
func TestGroupObservationAppendAllocFree(t *testing.T) {
	s := New()
	s.AddTweetBatch(tweetBatchFor(4))
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	o := Observation{
		At: base, Alive: true, Title: "daily title", Members: 120, Online: 12,
		CreatorPhoneH: "abcd", CreatorCountry: "BR", CreatorKey: "abcd",
	}
	for i := 0; i < 4096; i++ {
		s.AddObservation(platform.WhatsApp, "shared-group", o)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.AddObservation(platform.WhatsApp, "shared-group", o)
	})
	if allocs > 0 {
		t.Errorf("warm observation append allocated %.1f objects/op, want 0", allocs)
	}
}

// Columnar read-path gates: materializing a record from the packed columns
// must not allocate — strings come from the interning tables or arena
// views, times are rebuilt on the stack. A regression here multiplies
// across every experiment's full-corpus scan.

func TestTweetListAtAllocFree(t *testing.T) {
	s := New()
	batch := tweetBatchFor(64)
	for i := range batch {
		batch[i].Tweet.Text = "some tweet body text"
		batch[i].Tweet.Lang = "en"
	}
	s.AddTweetBatch(batch)
	tweets := s.Tweets()
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for i, n := 0, tweets.Len(); i < n; i++ {
			tr := tweets.At(i)
			sink += len(tr.Text) + len(tr.UserID) + tr.Hashtags
		}
	})
	if allocs > 0 {
		t.Errorf("TweetList.At allocated %.1f objects per scan, want 0", allocs)
	}
	_ = sink
}

func TestMessageListAtAllocFree(t *testing.T) {
	s := New()
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	msgs := make([]MessageRecord, 64)
	for i := range msgs {
		msgs[i] = MessageRecord{Platform: platform.Telegram, GroupCode: "g",
			AuthorKey: uint64(i), SentAt: base, Type: platform.Text}
	}
	s.AddMessageBatch(msgs)
	view := s.Messages()
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i, n := 0, view.Len(); i < n; i++ {
			m := view.At(i)
			sink += m.AuthorKey + uint64(len(m.GroupCode))
		}
	})
	if allocs > 0 {
		t.Errorf("MessageList.At allocated %.1f objects per scan, want 0", allocs)
	}
	_ = sink
}

func TestControlListAtAllocFree(t *testing.T) {
	s := New()
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 64; i++ {
		s.AddControl(ControlRecord{ID: uint64(i + 1), UserID: "u1", CreatedAt: base, Lang: "en"})
	}
	view := s.Control()
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for i, n := 0, view.Len(); i < n; i++ {
			c := view.At(i)
			sink += c.Hashtags + len(c.Lang)
		}
	})
	if allocs > 0 {
		t.Errorf("ControlList.At allocated %.1f objects per scan, want 0", allocs)
	}
	_ = sink
}
