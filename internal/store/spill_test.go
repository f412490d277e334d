package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"msgscope/internal/platform"
)

// Spill correctness gates. The contract under test is DESIGN.md §16's:
// sealing rows into mmap-backed segments is invisible to every reader —
// the same ingest with and without a budget produces byte-identical saved
// output — and a checkpoint resume, which replays the logs into a budgeted
// store, re-seals within the budget and saves byte-identically too.

// spillCorpus ingests a deterministic, every-family workload into s:
// tweets (with a full duplicate re-ingest from "the other API"), control
// tweets, messages, observation series that die partway, group scalar
// mutations (canonical URLs, joins), users, and posts. chk, when non-nil,
// runs between ingest rounds — the spilled twin passes SpillCheck there,
// so rows freeze mid-corpus and later rounds read and mutate frozen rows.
func spillCorpus(t *testing.T, s *Store, chk func()) {
	t.Helper()
	if chk == nil {
		chk = func() {}
	}
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	const nTweets = 4096

	rng := benchPCG(7)
	var textBuf []byte
	batch := make([]TweetIngest, 256)
	for done := 0; done < nTweets; done += len(batch) {
		textBuf = fillTweetBatch(batch, &rng, base, uint64(done+1), nTweets, textBuf)
		s.AddTweetBatch(batch)
		chk()
	}

	ctl := make([]ControlRecord, 256)
	for r := 0; r < 8; r++ {
		for i := range ctl {
			ctl[i] = ControlRecord{
				ID:        uint64(r*256 + i + 1),
				UserID:    "cu" + strconv.Itoa(i%97),
				CreatedAt: base.Add(time.Duration(r*256+i) * time.Second),
				Lang:      benchLangs[i%len(benchLangs)],
				Hashtags:  i % 3,
				Mentions:  i % 4,
				Retweet:   i%2 == 0,
			}
		}
		s.AddControlBatch(ctl)
		chk()
	}

	msgs := make([]MessageRecord, 512)
	mrng := benchPCG(11)
	for r := 0; r < 8; r++ {
		fillMessageBatch(msgs, &mrng, base, uint64(r*512), 4096)
		s.AddMessageBatch(msgs)
		chk()
	}

	// Observation series over the discovered groups, in the deterministic
	// sorted-group order; a third of the series end dead at sweep 3.
	type gkey struct {
		p    platform.Platform
		code string
	}
	var keys []gkey
	gl := s.Groups()
	for i, n := 0, gl.Len(); i < n; i++ {
		g := gl.At(i)
		keys = append(keys, gkey{g.Platform, g.Code})
	}
	for sweep := 0; sweep < 6; sweep++ {
		at := base.Add(time.Duration(sweep*24) * time.Hour)
		for i, k := range keys {
			if i%3 == 0 && sweep > 3 {
				continue // observed revoked at sweep 3; monitoring stopped
			}
			o := Observation{At: at, Alive: !(i%3 == 0 && sweep == 3)}
			if o.Alive {
				o.Title = "T " + k.code
				o.Members = 10 + i%50
				if k.p == platform.WhatsApp {
					o.CreatorPhoneH = HashPhone("+55" + strconv.Itoa(i))
					o.CreatorCountry = "BR"
				}
			}
			s.AddObservation(k.p, k.code, o)
		}
		chk()
	}

	// Group scalar mutations land in heap columns regardless of how much
	// of the observation chain is frozen.
	for i, k := range keys {
		if i%7 == 0 {
			s.SetCanonical(k.p, k.code, "https://chat.example/"+k.code)
		}
		if i%11 == 0 {
			s.MarkJoined(k.p, k.code, func(g *GroupRecord) {
				g.JoinedAt = base.Add(48 * time.Hour)
				g.MemberCount = 42
			})
		}
	}

	users := make([]UserRecord, 256)
	urng := benchPCG(13)
	fillUserBatch(users, &urng, 1024)
	s.UpsertUserBatch(users)
	s.AddPost(PostRecord{ID: 9001, Author: "a", CreatedAt: base, Platform: platform.Telegram, GroupCode: "grp1"})
	chk()

	// Finally the "other API" re-delivers every tweet: each hits the
	// duplicate path and merges its source bits — on sealed rows through
	// the copy-on-write mapping.
	drng := benchPCG(7)
	for done := 0; done < nTweets; done += len(batch) {
		textBuf = fillTweetBatch(batch, &drng, base, uint64(done+1), nTweets, textBuf)
		for i := range batch {
			batch[i].Tweet.Source = SourceStream
		}
		s.AddTweetBatch(batch)
	}
	chk()
}

// saveStore saves s into a fresh temp dir and returns it.
func saveStore(t *testing.T, s *Store) string {
	t.Helper()
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return dir
}

// compareSaveDirs requires the two saved datasets to match byte for byte.
func compareSaveDirs(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	wantFiles, err := os.ReadDir(wantDir)
	if err != nil {
		t.Fatal(err)
	}
	gotFiles, err := os.ReadDir(gotDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantFiles) != len(gotFiles) {
		t.Fatalf("saved %d files, want %d", len(gotFiles), len(wantFiles))
	}
	for _, e := range wantFiles {
		want, err := os.ReadFile(filepath.Join(wantDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, e.Name()))
		if err != nil {
			t.Fatalf("spilled store did not save %s: %v", e.Name(), err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs between all-RAM and spilled store (%d vs %d bytes)",
				e.Name(), len(want), len(got))
		}
	}
}

// TestSpilledStoreMatchesAllRAM is the tentpole differential: the same
// corpus ingested with a 1-byte budget (everything seals at every check,
// including mid-ingest message self-seals) saves byte-identically to the
// all-RAM twin.
func TestSpilledStoreMatchesAllRAM(t *testing.T) {
	plain := New()
	spillCorpus(t, plain, nil)

	sp := New()
	if err := sp.EnableSpill(SpillConfig{Dir: t.TempDir(), Budget: 1}); err != nil {
		t.Fatal(err)
	}
	spillCorpus(t, sp, func() {
		if err := sp.SpillCheck(); err != nil {
			t.Fatal(err)
		}
	})

	st := sp.SpillStats()
	if st.Segments == 0 {
		t.Fatal("corpus never spilled; the differential is vacuous")
	}
	if st.SegBytes == 0 {
		t.Error("segments recorded but zero bytes on disk")
	}
	t.Logf("spill stats: %d segments, %d bytes on disk, %d spillable / %d resident heap",
		st.Segments, st.SegBytes, st.SpillableHeapBytes, st.ResidentHeapBytes)

	compareSaveDirs(t, saveStore(t, plain), saveStore(t, sp))

	for _, p := range []platform.Platform{platform.WhatsApp, platform.Telegram, platform.Discord} {
		if got, want := sp.CountsFor(p), plain.CountsFor(p); got != want {
			t.Errorf("CountsFor(%v) = %+v, want %+v", p, got, want)
		}
	}
}

// TestSpillCheckpointResumeMatches covers resume under a budget: segments
// are per-run scratch, so a resume from either boundary replays the logs
// in full into a budgeted store, which re-seals as it goes. Resuming from
// the latest boundary must reproduce the full dataset; rolling back to the
// earlier one (as after a crash that lost the second manifest write) must
// reproduce a round-1-only run, with the later round's segments and any
// temp files deleted by EnableSpill before replay starts.
func TestSpillCheckpointResumeMatches(t *testing.T) {
	ckDir := t.TempDir()
	cfg := SpillConfig{Dir: filepath.Join(ckDir, "segments"), Budget: 1}

	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	ingest := func(s *Store, round int) {
		rng := benchPCG(uint64(100 + round))
		var textBuf []byte
		batch := make([]TweetIngest, 256)
		textBuf = fillTweetBatch(batch, &rng, base, uint64(round*10000+1), 4096, textBuf)
		s.AddTweetBatch(batch)
		ctl := make([]ControlRecord, 128)
		for i := range ctl {
			ctl[i] = ControlRecord{ID: uint64(round*10000 + i + 1), UserID: "cu" + strconv.Itoa(i%31),
				CreatedAt: base.Add(time.Duration(i) * time.Second), Lang: benchLangs[i%len(benchLangs)]}
		}
		s.AddControlBatch(ctl)
		msgs := make([]MessageRecord, 256)
		mrng := benchPCG(uint64(200 + round))
		fillMessageBatch(msgs, &mrng, base, uint64(round*256), 4096)
		s.AddMessageBatch(msgs)
		gl := s.Groups()
		for i, n := 0, gl.Len(); i < n; i++ {
			g := gl.At(i)
			s.AddObservation(g.Platform, g.Code, Observation{
				At: base.Add(time.Duration(round*24) * time.Hour), Alive: true, Title: "T " + g.Code, Members: 5 + i%9,
			})
		}
	}

	s := New()
	if err := s.EnableSpill(cfg); err != nil {
		t.Fatal(err)
	}
	w, err := s.OpenCheckpointWriter(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	ingest(s, 1)
	if err := s.SpillCheck(); err != nil {
		t.Fatal(err)
	}
	logs1, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ingest(s, 2)
	if err := s.SpillCheck(); err != nil {
		t.Fatal(err)
	}
	logs2, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.SpillStats(); st.Segments == 0 {
		t.Fatal("nothing sealed; the resume test is vacuous")
	}
	fullSave := saveStore(t, s)

	// Resume from the latest boundary: full replay, re-sealing as it goes.
	r2 := New()
	if err := r2.EnableSpill(cfg); err != nil {
		t.Fatal(err)
	}
	if err := r2.LoadCheckpoint(ckDir, logs2); err != nil {
		t.Fatal(err)
	}
	if st := r2.SpillStats(); st.Segments == 0 {
		t.Fatal("replay sealed no segments")
	}
	compareSaveDirs(t, fullSave, saveStore(t, r2))

	// Roll back to the earlier boundary. The directory now holds r2's
	// round-2 segments; add a temp file as a crash mid-seal leaves one.
	// Destructive to the logs (they are truncated to the round-1 prefix),
	// so this comes last.
	strays, err := filepath.Glob(filepath.Join(cfg.Dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(cfg.Dir, "tweets-000099.seg.tmp")
	if err := os.WriteFile(tmp, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	strays = append(strays, tmp)
	expect := New()
	ingest(expect, 1)
	r1 := New()
	if err := r1.EnableSpill(cfg); err != nil {
		t.Fatal(err)
	}
	for _, p := range strays {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stray file %s survived EnableSpill", filepath.Base(p))
		}
	}
	if err := r1.LoadCheckpoint(ckDir, logs1); err != nil {
		t.Fatal(err)
	}
	compareSaveDirs(t, saveStore(t, expect), saveStore(t, r1))
}

// TestLoadCheckpointStaysWithinBudget replays a corpus many batches larger
// than a small budget into a budgeted store: replay must re-seal as it
// goes, leaving the spillable heap within one replay batch of the budget
// rather than holding the whole corpus until the next boundary.
func TestLoadCheckpointStaysWithinBudget(t *testing.T) {
	const budget = 1 << 20
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	ckDir := t.TempDir()
	s := New()
	w, err := s.OpenCheckpointWriter(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	const nTweets = 10 * jsonlBatchSize
	rng := benchPCG(3)
	var textBuf []byte
	tweets := make([]TweetIngest, 1024)
	for done := 0; done < nTweets; done += len(tweets) {
		textBuf = fillTweetBatch(tweets, &rng, base, uint64(done+1), nTweets, textBuf)
		s.AddTweetBatch(tweets)
	}
	ctl := make([]ControlRecord, 4*jsonlBatchSize)
	for i := range ctl {
		ctl[i] = ControlRecord{ID: uint64(i + 1), UserID: "cu" + strconv.Itoa(i%97),
			CreatedAt: base.Add(time.Duration(i) * time.Second), Lang: benchLangs[i%len(benchLangs)]}
	}
	s.AddControlBatch(ctl)
	msgs := make([]MessageRecord, 8*jsonlBatchSize)
	fillMessageBatch(msgs, &rng, base, 0, len(msgs))
	s.AddMessageBatch(msgs)
	gl := s.Groups()
	for sweep := 0; sweep < 3; sweep++ {
		for i, n := 0, gl.Len(); i < n; i++ {
			g := gl.At(i)
			s.AddObservation(g.Platform, g.Code, Observation{
				At: base.Add(time.Duration(sweep*24) * time.Hour), Alive: true, Title: "T " + g.Code, Members: i,
			})
		}
	}
	logs, err := w.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// One replay batch's heap footprint: jsonlBatchSize tweets, the
	// widest family, ingested into a plain store.
	one := New()
	batch := make([]TweetIngest, jsonlBatchSize)
	fillTweetBatch(batch, &rng, base, 1, nTweets, nil)
	one.AddTweetBatch(batch)
	batchBytes := one.SpillStats().SpillableHeapBytes
	if full := s.SpillStats().SpillableHeapBytes; full < 4*(budget+batchBytes) {
		t.Fatalf("corpus holds %d spillable bytes, too few to exceed budget %d plus a %d-byte batch", full, budget, batchBytes)
	}

	r := New()
	if err := r.EnableSpill(SpillConfig{Dir: t.TempDir(), Budget: budget}); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadCheckpoint(ckDir, logs); err != nil {
		t.Fatal(err)
	}
	st := r.SpillStats()
	if st.SpillableHeapBytes > budget+batchBytes {
		t.Errorf("after replay the spillable heap holds %d bytes, want at most budget %d + one batch %d",
			st.SpillableHeapBytes, budget, batchBytes)
	}
	if st.Segments == 0 {
		t.Error("replay sealed no segments")
	}
	compareSaveDirs(t, saveStore(t, s), saveStore(t, r))
}

// TestSpilledListAccessAllocFree pins the zero-alloc read contract across
// the tier boundary: At on rows served from a mapped segment allocates
// exactly as much as At on heap rows — nothing.
func TestSpilledListAccessAllocFree(t *testing.T) {
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: t.TempDir(), Budget: 1}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	rng := benchPCG(5)
	batch := make([]TweetIngest, 512)
	fillTweetBatch(batch, &rng, base, 1, 512, nil)
	s.AddTweetBatch(batch)
	msgs := make([]MessageRecord, 512)
	mrng := benchPCG(6)
	fillMessageBatch(msgs, &mrng, base, 0, 512)
	s.AddMessageBatch(msgs)
	if err := s.SpillCheck(); err != nil {
		t.Fatal(err)
	}
	// A second, unsealed round so the lists straddle both tiers.
	fillTweetBatch(batch, &rng, base, 1000, 512, nil)
	s.AddTweetBatch(batch)

	tweets := s.Tweets()
	msgsL := s.Messages()
	var sink int
	allocs := testing.AllocsPerRun(50, func() {
		for i, n := 0, tweets.Len(); i < n; i++ {
			sink += len(tweets.At(i).Text)
		}
		for i, n := 0, msgsL.Len(); i < n; i++ {
			sink += int(msgsL.At(i).AuthorKey)
		}
	})
	if allocs > 0 {
		t.Errorf("list access over spilled rows allocated %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

// TestPruneObservationsSealsDeadSeries exercises the eager path: once
// enough of the observation heap belongs to series that ended dead before
// the horizon, the chains seal without any budget pressure — but only past
// pruneMinRows heap rows.
func TestPruneObservationsSealsDeadSeries(t *testing.T) {
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	// fill gives groups four sweeps each; three quarters of the series end
	// dead at the last sweep.
	fill := func(s *Store, groups int) {
		for i := 0; i < groups; i++ {
			code := "g" + strconv.Itoa(i)
			s.AddTweet(TweetRecord{ID: uint64(i + 1), UserID: "u", CreatedAt: base,
				Platform: platform.Telegram, GroupCode: code, Source: SourceSearch})
			for sweep := 0; sweep < 4; sweep++ {
				alive := sweep < 3 || i%4 == 0
				s.AddObservation(platform.Telegram, code, Observation{
					At: base.Add(time.Duration(sweep*24) * time.Hour), Alive: alive, Members: i,
				})
			}
		}
	}
	mk := func(groups int) *Store {
		s := New()
		if err := s.EnableSpill(SpillConfig{Dir: t.TempDir(), Budget: 1 << 40}); err != nil {
			t.Fatal(err)
		}
		fill(s, groups)
		return s
	}
	late := base.Add(10 * 24 * time.Hour)

	// Just under the row minimum: even 3/4 dead series stay in heap.
	small := mk(pruneMinRows/4 - 1)
	if err := small.PruneObservations(late); err != nil {
		t.Fatal(err)
	}
	if st := small.SpillStats(); st.Segments != 0 {
		t.Fatalf("pruned %d segments below the %d-row minimum", st.Segments, pruneMinRows)
	}

	groups := pruneMinRows/4 + 16
	s := mk(groups)
	plain := New()
	fill(plain, groups)
	// Horizon before the dead tails: nothing to prune yet.
	if err := s.PruneObservations(base); err != nil {
		t.Fatal(err)
	}
	if st := s.SpillStats(); st.Segments != 0 {
		t.Fatalf("pruned %d segments with nothing past the horizon", st.Segments)
	}
	// Horizon after them: the dead share (75%) crosses the quarter trigger.
	if err := s.PruneObservations(late); err != nil {
		t.Fatal(err)
	}
	if st := s.SpillStats(); st.Segments == 0 {
		t.Fatal("prune did not seal despite 3/4 dead series")
	}
	compareSaveDirs(t, saveStore(t, plain), saveStore(t, s))
}
