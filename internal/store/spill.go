package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Segment spilling (DESIGN.md §16): when the columnar families' live heap
// bytes cross a configured budget, the older portion of each family is
// sealed into an immutable on-disk segment and the heap copies dropped;
// reads are served through the mmap-backed segment views in segment.go.
// Sealing never renumbers rows, so the dedup indexes, checkpoint marks,
// and observation chain links that hold global row numbers stay valid.
//
// What spills: the tweet, control, and message families and the
// observation columns. What stays resident by design: the dedup indexes
// (seenTweets/seenPosts — every ingest probes them), the group scalar
// columns (every sweep touches every group), the user stripes (merge
// semantics rewrite rows in place), the posts slice, and the interning
// tables. SpillStats reports both sides so the floor is an honest number,
// not a hidden one.
//
// Segments are per-run scratch, never durable state: the checkpoint's
// record logs carry every row, a resume replays them into a store with the
// same budget (LoadCheckpoint re-seals as it goes), and EnableSpill clears
// the directory on every start, fresh or resumed. A segment is therefore
// only ever read by the process that sealed it, which is why its handle
// columns hold live ids.Table handles (segment.go).
//
// Concurrency: SpillCheck and PruneObservations are driven from the study
// engine's single core goroutine at quiesced boundaries, taking each
// family's lock one at a time — never two family locks at once — so they
// compose with the store's lock order trivially. The message family's
// mid-ingest self-seal is the one concurrent caller of the bookkeeping,
// hence spillState.mu.

// Spill family names, also the segment file-name prefixes.
const (
	famTweets   = "tweets"
	famControl  = "control"
	famMessages = "messages"
	famObs      = "obs"
)

// pruneMinRows is the minimum observation heap-row count before
// PruneObservations considers an eager seal: below it, a segment file
// would cost more than the rows it frees.
const pruneMinRows = 4096

// SpillConfig configures segment spilling.
type SpillConfig struct {
	// Dir holds the segment files. EnableSpill deletes every *.seg and
	// *.tmp file in it, so it must not be shared with another run.
	Dir string
	// Budget is the live-heap byte target for the spillable families;
	// SpillCheck seals when the measured total exceeds it.
	Budget int64
}

// spillState is the store's spilling driver; nil when no budget is set.
// mu guards the bookkeeping (seq, segs, bytes, err) — the message
// family self-seals from concurrent ingest workers (see AddMessageBatch),
// so the bookkeeping cannot lean on the single-threaded boundary checks
// alone.
type spillState struct {
	cfg SpillConfig

	mu    sync.Mutex
	seq   map[string]int
	segs  int
	bytes int64
	err   error // first seal failure from a path that cannot return it
}

func (sp *spillState) nextName(fam string) string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	name := fmt.Sprintf("%s-%06d.seg", fam, sp.seq[fam])
	sp.seq[fam]++
	return name
}

// note records one sealed segment of size bytes.
func (sp *spillState) note(size int64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.segs++
	sp.bytes += size
}

// fail stashes the first error from a seal path that cannot surface one
// (mid-ingest self-seal); the next SpillCheck returns it.
func (sp *spillState) fail(err error) {
	sp.mu.Lock()
	if sp.err == nil {
		sp.err = err
	}
	sp.mu.Unlock()
}

func (sp *spillState) takeErr() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	err := sp.err
	sp.err = nil
	return err
}

// EnableSpill arms segment spilling. Call before ingestion starts (the
// engine does, right after constructing the store). It deletes every
// segment and temp file already in cfg.Dir — a previous run's, or what a
// crash mid-seal left behind — so fresh and resumed runs start alike.
func (s *Store) EnableSpill(cfg SpillConfig) error {
	if cfg.Dir == "" {
		return errors.New("store: spill directory not set")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(cfg.Dir, name)); err != nil {
				return err
			}
		}
	}
	s.spill = &spillState{cfg: cfg, seq: map[string]int{}}
	return nil
}

// SpillCheck measures the spillable families' heap bytes and, when the
// total exceeds the budget, seals every family whose share is worth a
// segment. Sealing everything over-budget in one pass (rather than just
// the largest family) keeps the check O(families) and the steady state
// simple: after a seal the spillable heap restarts near zero.
func (s *Store) SpillCheck() error {
	sp := s.spill
	if sp == nil || sp.cfg.Budget <= 0 {
		return nil
	}
	if err := sp.takeErr(); err != nil {
		return err
	}
	s.tweetMu.Lock()
	tw, ctl := s.tweets.heapBytes(), s.control.heapBytes()
	s.tweetMu.Unlock()
	s.msgMu.Lock()
	mg := s.msgs.heapBytes()
	s.msgMu.Unlock()
	var ob int64
	for i := range s.groups.stripes {
		st := &s.groups.stripes[i]
		st.mu.Lock()
		ob += st.obs.heapBytes()
		st.mu.Unlock()
	}
	if tw+ctl+mg+ob <= sp.cfg.Budget {
		return nil
	}
	// A family below minSeal stays in heap: sealing it would buy little
	// and cost a file per check.
	minSeal := min(int64(1<<20), sp.cfg.Budget/8)
	if tw >= minSeal {
		if err := s.sealTweets(); err != nil {
			return err
		}
	}
	if ctl >= minSeal {
		if err := s.sealControl(); err != nil {
			return err
		}
	}
	if mg >= minSeal {
		if err := s.sealMessages(); err != nil {
			return err
		}
	}
	if ob >= minSeal {
		if err := s.sealObs(); err != nil {
			return err
		}
	}
	return nil
}

// PruneObservations eagerly seals the observation heap when at least a
// quarter of it belongs to groups whose series ended dead before horizon —
// their rows will never be appended to again, so holding them in heap buys
// nothing. Cheap shared-prefix approximation: a dead group's whole series
// (obsCount) is counted against the heap even if part of it was already
// sealed, which only makes the trigger more conservative.
func (s *Store) PruneObservations(horizon time.Time) error {
	sp := s.spill
	if sp == nil {
		return nil
	}
	h := timeToNano(horizon)
	s.groups.lockAll()
	defer s.groups.unlockAll()
	heapRows, deadRows := 0, 0
	for i := range s.groups.stripes {
		st := &s.groups.stripes[i]
		heapRows += len(st.obs.at)
		for _, row := range st.m {
			tail := st.obsTail[row]
			if tail == 0 || int(tail-1) < st.obs.frozen {
				continue // no series, or its tail is already sealed
			}
			j := int(tail - 1)
			if st.obs.flagsAt(j)&ofAlive == 0 && st.obs.atNano(j) < h {
				deadRows += int(st.obsCount[row])
			}
		}
	}
	if heapRows < pruneMinRows || deadRows*4 < heapRows {
		return nil
	}
	return s.sealObsLocked()
}

// sealTweets seals the tweet family's entire heap tail into one segment.
func (s *Store) sealTweets() error {
	sp := s.spill
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	c := &s.tweets
	n := len(c.ids)
	if n == 0 {
		return nil
	}
	name := sp.nextName(famTweets)
	w, err := newSegWriter(sp.cfg.Dir, name, famTweets)
	if err != nil {
		return err
	}
	w.section("ids", castBytes(c.ids))
	w.section("user", castBytes(c.user))
	w.section("created", castBytes(c.created))
	w.section("lang", castBytes(c.lang))
	w.section("hashtags", castBytes(c.hashtags))
	w.section("mentions", castBytes(c.mentions))
	w.section("flags", c.flags)
	w.section("plat", c.plat)
	w.section("group", castBytes(c.group))
	writeTextCols(w, &c.text, n)
	path, size, err := w.finish(int64(n), nil)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famTweets)
	if err != nil {
		return err
	}
	seg, err := bindTweetSeg(f, c.frozen, c)
	if err != nil {
		return err
	}
	c.segs = append(c.segs, seg)
	c.frozen += n
	c.ids, c.user, c.created, c.lang = nil, nil, nil, nil
	c.hashtags, c.mentions, c.flags, c.plat, c.group = nil, nil, nil, nil, nil
	c.text = textArena{}
	sp.note(size)
	return nil
}

// writeTextCols writes a text arena as an n+1 prefix-offset column plus a
// contiguous blob.
func writeTextCols(w *segWriter, a *textArena, n int) {
	off := make([]uint64, n+1)
	for i := 0; i < n; i++ {
		off[i+1] = off[i] + uint64(len(a.at(i)))
	}
	w.section("text.off", castBytes(off))
	w.begin("text.blob")
	for i := 0; i < n; i++ {
		w.writeString(a.at(i))
	}
	w.end()
}

// sealControl seals the control family's heap tail.
func (s *Store) sealControl() error {
	sp := s.spill
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	c := &s.control
	n := len(c.ids)
	if n == 0 {
		return nil
	}
	name := sp.nextName(famControl)
	w, err := newSegWriter(sp.cfg.Dir, name, famControl)
	if err != nil {
		return err
	}
	w.section("ids", castBytes(c.ids))
	w.section("user", castBytes(c.user))
	w.section("created", castBytes(c.created))
	w.section("lang", castBytes(c.lang))
	w.section("hashtags", castBytes(c.hashtags))
	w.section("mentions", castBytes(c.mentions))
	w.section("flags", c.flags)
	path, size, err := w.finish(int64(n), nil)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famControl)
	if err != nil {
		return err
	}
	seg, err := bindControlSeg(f, c.frozen, c)
	if err != nil {
		return err
	}
	c.segs = append(c.segs, seg)
	c.frozen += n
	c.ids, c.user, c.created, c.lang = nil, nil, nil, nil
	c.hashtags, c.mentions, c.flags = nil, nil, nil
	sp.note(size)
	return nil
}

// sealMessages seals the message family's heap tail.
func (s *Store) sealMessages() error {
	s.msgMu.Lock()
	defer s.msgMu.Unlock()
	return s.sealMessagesLocked()
}

// sealMessagesLocked is sealMessages under a held msgMu — the mid-ingest
// self-seal in AddMessageBatch already owns the lock.
func (s *Store) sealMessagesLocked() error {
	sp := s.spill
	c := &s.msgs
	n := len(c.plat)
	if n == 0 {
		return nil
	}
	name := sp.nextName(famMessages)
	w, err := newSegWriter(sp.cfg.Dir, name, famMessages)
	if err != nil {
		return err
	}
	w.section("plat", c.plat)
	w.section("group", castBytes(c.group))
	w.section("author", castBytes(c.author))
	w.section("sent", castBytes(c.sent))
	w.section("typ", c.typ)
	writeTextCols(w, &c.text, n)
	path, size, err := w.finish(int64(n), nil)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famMessages)
	if err != nil {
		return err
	}
	seg, err := bindMsgSeg(f, c.frozen, c)
	if err != nil {
		return err
	}
	c.segs = append(c.segs, seg)
	c.frozen += n
	c.plat, c.group, c.author, c.sent, c.typ = nil, nil, nil, nil, nil
	c.text = textArena{}
	sp.note(size)
	return nil
}

// sealObs seals every stripe's observation heap tail into one shared
// segment file (64 per-stripe section groups). Handle columns keep their
// stripe-table handles, as every family's segments do.
func (s *Store) sealObs() error {
	s.groups.lockAll()
	defer s.groups.unlockAll()
	return s.sealObsLocked()
}

// sealObsLocked does the work of sealObs; the caller holds every group
// stripe lock (the store's documented lock order).
func (s *Store) sealObsLocked() error {
	sp := s.spill
	total := 0
	for i := range s.groups.stripes {
		total += len(s.groups.stripes[i].obs.at)
	}
	if total == 0 {
		return nil
	}
	name := sp.nextName(famObs)
	w, err := newSegWriter(sp.cfg.Dir, name, famObs)
	if err != nil {
		return err
	}
	stripeRows := make([]int64, numStripes)
	for i := range s.groups.stripes {
		c := &s.groups.stripes[i].obs
		stripeRows[i] = int64(len(c.at))
		if len(c.at) == 0 {
			continue
		}
		pre := fmt.Sprintf("s%02d.", i)
		w.section(pre+"at", castBytes(c.at))
		w.section(pre+"createdAt", castBytes(c.createdAt))
		w.section(pre+"title", castBytes(c.title))
		w.section(pre+"phoneH", castBytes(c.phoneH))
		w.section(pre+"country", castBytes(c.country))
		w.section(pre+"creator", castBytes(c.creator))
		w.section(pre+"members", castBytes(c.members))
		w.section(pre+"online", castBytes(c.online))
		w.section(pre+"flags", c.flags)
		w.section(pre+"next", castBytes(c.next))
	}
	path, size, err := w.finish(int64(total), stripeRows)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famObs)
	if err != nil {
		return err
	}
	for i := range s.groups.stripes {
		n := int(stripeRows[i])
		if n == 0 {
			continue
		}
		st := &s.groups.stripes[i]
		c := &st.obs
		seg, err := bindObsSeg(f, i, c.frozen, n, st.tab)
		if err != nil {
			return err
		}
		c.segs = append(c.segs, seg)
		c.frozen += n
		c.at, c.createdAt, c.title, c.phoneH, c.country = nil, nil, nil, nil, nil
		c.creator, c.members, c.online, c.flags, c.next = nil, nil, nil, nil, nil
	}
	sp.note(size)
	return nil
}

// SpillStats summarizes the spill tier and the heap floor for logging and
// benchmarks.
type SpillStats struct {
	Segments int   // sealed segment files
	SegBytes int64 // bytes on disk (mapped, not resident)
	// SpillableHeapBytes is the hot tail of the families that can spill.
	SpillableHeapBytes int64
	// ResidentHeapBytes is the floor that stays in heap by design: dedup
	// indexes, group scalar columns, user stripes (DESIGN.md §16).
	ResidentHeapBytes int64
}

// SpillStats measures the current split. Safe at quiesced boundaries
// (takes each family lock one at a time, like SpillCheck).
func (s *Store) SpillStats() SpillStats {
	var out SpillStats
	if sp := s.spill; sp != nil {
		sp.mu.Lock()
		out.Segments, out.SegBytes = sp.segs, sp.bytes
		sp.mu.Unlock()
	}
	s.tweetMu.Lock()
	out.SpillableHeapBytes += s.tweets.heapBytes() + s.control.heapBytes()
	out.ResidentHeapBytes += s.seenTweets.HeapBytes() + s.seenPosts.HeapBytes()
	s.tweetMu.Unlock()
	s.msgMu.Lock()
	out.SpillableHeapBytes += s.msgs.heapBytes()
	s.msgMu.Unlock()
	for i := range s.groups.stripes {
		st := &s.groups.stripes[i]
		st.mu.Lock()
		out.SpillableHeapBytes += st.obs.heapBytes()
		out.ResidentHeapBytes += st.scalarHeapBytes()
		st.mu.Unlock()
	}
	for i := range s.users.stripes {
		st := &s.users.stripes[i]
		st.mu.Lock()
		out.ResidentHeapBytes += st.heapBytes()
		st.mu.Unlock()
	}
	return out
}
