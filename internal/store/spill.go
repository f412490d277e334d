package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"msgscope/internal/checkpoint"
	"msgscope/internal/platform"
)

// Segment spilling (DESIGN.md §16): when the columnar families' live heap
// bytes cross a configured budget, the older portion of each family is
// sealed into an immutable on-disk segment and the heap copies dropped;
// reads are served through the mmap-backed segment views in segment.go.
// Sealing never renumbers rows, so the dedup indexes, checkpoint marks,
// and observation chain links that hold global row numbers stay valid.
//
// What spills: the tweet, control, and message families (pinned by the
// checkpoint manifest and re-mapped on resume) and the observation columns
// (sealed per-run, rebuilt from the event log on resume). What stays
// resident by design: the dedup indexes (seenTweets/seenPosts — every
// ingest probes them), the group scalar columns (every sweep touches every
// group), the user stripes (merge semantics rewrite rows in place), the
// posts slice, and the interning tables. SpillStats reports both sides so
// the floor is an honest number, not a hidden one.
//
// Concurrency: SpillCheck and PruneObservations are driven from the study
// engine's single core goroutine at quiesced boundaries, taking each
// family's lock one at a time — never two family locks at once — so they
// compose with the store's lock order trivially. The spill bookkeeping
// itself is only touched under those calls plus single-threaded restore.

// Spill family names, also the segment file-name prefixes.
const (
	famTweets   = "tweets"
	famControl  = "control"
	famMessages = "messages"
	famObs      = "obs"
)

// pinnedFams are the families the checkpoint manifest pins; famObs is
// deliberately absent (rebuilt from the event log on resume).
var pinnedFams = []string{famTweets, famControl, famMessages}

// SpillConfig configures segment spilling.
type SpillConfig struct {
	// Dir holds the segment files. For a checkpointed run this lives
	// inside the checkpoint directory, so segments and manifest share a
	// filesystem and crash story.
	Dir string
	// Budget is the live-heap byte target for the spillable families;
	// SpillCheck seals when the measured total exceeds it.
	Budget int64
	// PruneMinRows is the minimum observation heap-row count before
	// PruneObservations considers an eager seal (default 4096).
	PruneMinRows int
}

// spillSeg is one sealed segment's bookkeeping entry.
type spillSeg struct {
	name  string
	rows  int64
	bytes int64
}

// spillState is the store's spilling driver; nil when no budget is set.
// mu guards the bookkeeping (seq, fams, files, err) — the message family
// self-seals from concurrent ingest workers (see AddMessageBatch), so the
// bookkeeping cannot lean on the single-threaded boundary checks alone.
type spillState struct {
	cfg SpillConfig

	mu    sync.Mutex
	seq   map[string]int
	fams  map[string][]spillSeg
	files []*segFile // keeps mappings reachable for tooling/debuggers
	err   error      // first seal failure from a path that cannot return it
}

func (sp *spillState) nextName(fam string) string {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	name := fmt.Sprintf("%s-%06d.seg", fam, sp.seq[fam])
	sp.seq[fam]++
	return name
}

// note records one sealed or restored segment and keeps the name sequence
// ahead of every name seen, so a resumed run never reuses a pinned name.
func (sp *spillState) note(fam, name string, rows, bytes int64, f *segFile) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.fams[fam] = append(sp.fams[fam], spillSeg{name: name, rows: rows, bytes: bytes})
	sp.files = append(sp.files, f)
	var q int
	if _, err := fmt.Sscanf(name, fam+"-%d.seg", &q); err == nil && q >= sp.seq[fam] {
		sp.seq[fam] = q + 1
	}
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
// engine does, right after constructing the store).
func (s *Store) EnableSpill(cfg SpillConfig) error {
	if cfg.Dir == "" {
		return errors.New("store: spill directory not set")
	}
	if cfg.PruneMinRows <= 0 {
		cfg.PruneMinRows = 4096
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return err
	}
	s.spill = &spillState{cfg: cfg, seq: map[string]int{}, fams: map[string][]spillSeg{}}
	return nil
}

// SpillConfigured reports the active spill configuration, if any.
func (s *Store) SpillConfigured() (SpillConfig, bool) {
	if s.spill == nil {
		return SpillConfig{}, false
	}
	return s.spill.cfg, true
}

// ResetSpillDir deletes every segment and temp file in the spill
// directory — a fresh (non-resume) run must not map a previous run's
// leftovers.
func (s *Store) ResetSpillDir() error {
	if s.spill == nil {
		return nil
	}
	return removeSegFiles(s.spill.cfg.Dir, nil)
}

func removeSegFiles(dir string, keep map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if keep[name] {
			continue
		}
		if strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
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
	if heapRows < sp.cfg.PruneMinRows || deadRows*4 < heapRows {
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
	users := newDictBuilder(c.userTab)
	langs := newDictBuilder(c.langTab)
	groups := newDictBuilder(c.groupTab)
	local := make([]uint32, n)
	w.section("ids", castBytes(c.ids))
	for i, h := range c.user {
		local[i] = users.local(h)
	}
	w.section("user", castBytes(local))
	w.section("created", castBytes(c.created))
	for i, h := range c.lang {
		local[i] = langs.local(h)
	}
	w.section("lang", castBytes(local))
	w.section("hashtags", castBytes(c.hashtags))
	w.section("mentions", castBytes(c.mentions))
	w.section("flags", c.flags)
	w.section("plat", c.plat)
	for i, h := range c.group {
		local[i] = groups.local(h)
	}
	w.section("group", castBytes(local))
	writeTextCols(w, &c.text, n)
	users.writeTo(w, "users")
	langs.writeTo(w, "langs")
	groups.writeTo(w, "groups")
	path, size, err := w.finish(int64(n), nil)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famTweets)
	if err != nil {
		return err
	}
	seg, err := bindTweetSeg(f, c.frozen)
	if err != nil {
		return err
	}
	// At seal time the local→live handle maps are exactly the dictionary
	// builders' first-use orders.
	seg.userMap, seg.langMap, seg.groupMap = users.globals, langs.globals, groups.globals
	c.segs = append(c.segs, seg)
	c.frozen += n
	c.ids, c.user, c.created, c.lang = nil, nil, nil, nil
	c.hashtags, c.mentions, c.flags, c.plat, c.group = nil, nil, nil, nil, nil
	c.text = textArena{}
	sp.note(famTweets, name, int64(n), size, f)
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
	users := newDictBuilder(c.userTab)
	langs := newDictBuilder(c.langTab)
	local := make([]uint32, n)
	w.section("ids", castBytes(c.ids))
	for i, h := range c.user {
		local[i] = users.local(h)
	}
	w.section("user", castBytes(local))
	w.section("created", castBytes(c.created))
	for i, h := range c.lang {
		local[i] = langs.local(h)
	}
	w.section("lang", castBytes(local))
	w.section("hashtags", castBytes(c.hashtags))
	w.section("mentions", castBytes(c.mentions))
	w.section("flags", c.flags)
	users.writeTo(w, "users")
	langs.writeTo(w, "langs")
	path, size, err := w.finish(int64(n), nil)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famControl)
	if err != nil {
		return err
	}
	seg, err := bindControlSeg(f, c.frozen)
	if err != nil {
		return err
	}
	seg.userMap, seg.langMap = users.globals, langs.globals
	c.segs = append(c.segs, seg)
	c.frozen += n
	c.ids, c.user, c.created, c.lang = nil, nil, nil, nil
	c.hashtags, c.mentions, c.flags = nil, nil, nil
	sp.note(famControl, name, int64(n), size, f)
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
	groups := newDictBuilder(c.groupTab)
	local := make([]uint32, n)
	w.section("plat", c.plat)
	for i, h := range c.group {
		local[i] = groups.local(h)
	}
	w.section("group", castBytes(local))
	w.section("author", castBytes(c.author))
	w.section("sent", castBytes(c.sent))
	w.section("typ", c.typ)
	writeTextCols(w, &c.text, n)
	groups.writeTo(w, "groups")
	path, size, err := w.finish(int64(n), nil)
	if err != nil {
		return err
	}
	f, err := openSegFile(path, famMessages)
	if err != nil {
		return err
	}
	seg, err := bindMsgSeg(f, c.frozen)
	if err != nil {
		return err
	}
	seg.groupMap = groups.globals
	c.segs = append(c.segs, seg)
	c.frozen += n
	c.plat, c.group, c.author, c.sent, c.typ = nil, nil, nil, nil, nil
	c.text = textArena{}
	sp.note(famMessages, name, int64(n), size, f)
	return nil
}

// sealObs seals every stripe's observation heap tail into one shared
// segment file (64 per-stripe section groups). Handle columns keep their
// stripe-table handles — the file is never re-mapped under a different
// table (resume rebuilds observations from the event log instead), so no
// dictionaries are needed.
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
		c := &s.groups.stripes[i].obs
		seg, err := bindObsSeg(f, i, c.frozen, n)
		if err != nil {
			return err
		}
		c.segs = append(c.segs, seg)
		c.frozen += n
		c.at, c.createdAt, c.title, c.phoneH, c.country = nil, nil, nil, nil, nil
		c.creator, c.members, c.online, c.flags, c.next = nil, nil, nil, nil, nil
	}
	sp.note(famObs, name, int64(total), size, f)
	return nil
}

// SpillManifest returns the checkpoint-pinnable spill state: the sealed
// segments of the append-only families (observation segments are per-run
// and excluded). Nil when spilling is off.
func (s *Store) SpillManifest() *checkpoint.SpillState {
	sp := s.spill
	if sp == nil {
		return nil
	}
	out := &checkpoint.SpillState{Budget: sp.cfg.Budget}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, fam := range pinnedFams {
		segs := sp.fams[fam]
		if len(segs) == 0 {
			continue
		}
		var f checkpoint.SpillFamily
		for _, sg := range segs {
			f.Rows += sg.rows
			f.Segments = append(f.Segments, checkpoint.SpillSegment{
				Name: sg.name, Rows: sg.rows, Bytes: sg.bytes,
			})
		}
		if out.Families == nil {
			out.Families = map[string]checkpoint.SpillFamily{}
		}
		out.Families[fam] = f
	}
	return out
}

// RestoreSpill re-maps a manifest's pinned segments into an empty store,
// before LoadCheckpoint replays the logs on top. It deletes every segment
// file the manifest does not reference (a crash mid-seal or between a seal
// and the next manifest leaves orphans whose rows the logs still carry),
// maps each pinned family's segments in order, re-interns their
// dictionaries into the live tables, and rebuilds the derived state the
// sealed rows would have produced through live ingestion: the tweet dedup
// index and the tweet-derived group skeletons. LoadCheckpoint then replays
// the tweet log in full (sealed rows hit the dedup path and idempotently
// re-merge their source bits) and skips the sealed prefix of the control
// and message logs.
func (s *Store) RestoreSpill(cfg SpillConfig, m *checkpoint.SpillState) error {
	if err := s.EnableSpill(cfg); err != nil {
		return err
	}
	keep := map[string]bool{}
	if m != nil {
		for _, fam := range m.Families {
			for _, sg := range fam.Segments {
				keep[sg.Name] = true
			}
		}
	}
	if err := removeSegFiles(cfg.Dir, keep); err != nil {
		return err
	}
	if m == nil {
		return nil
	}
	if err := s.restoreTweetSegs(m.Families[famTweets]); err != nil {
		return err
	}
	if err := s.restoreControlSegs(m.Families[famControl]); err != nil {
		return err
	}
	return s.restoreMsgSegs(m.Families[famMessages])
}

// openPinned maps one pinned segment and verifies it against the manifest
// entry.
func (sp *spillState) openPinned(fam string, pin checkpoint.SpillSegment) (*segFile, error) {
	f, err := openSegFile(filepath.Join(sp.cfg.Dir, pin.Name), fam)
	if err != nil {
		return nil, err
	}
	if f.foot.Rows != pin.Rows || int64(len(f.data)) != pin.Bytes {
		unmapFile(f.data)
		return nil, fmt.Errorf("store: segment %s: %d rows / %d bytes, manifest pinned %d / %d",
			pin.Name, f.foot.Rows, len(f.data), pin.Rows, pin.Bytes)
	}
	return f, nil
}

func (s *Store) restoreTweetSegs(fam checkpoint.SpillFamily) error {
	sp := s.spill
	for _, pin := range fam.Segments {
		f, err := sp.openPinned(famTweets, pin)
		if err != nil {
			return err
		}
		seg, err := bindTweetSeg(f, s.tweets.frozen)
		if err != nil {
			unmapFile(f.data)
			return err
		}
		seg.userMap = seg.users.remap(s.tweets.userTab)
		seg.langMap = seg.langs.remap(s.tweets.langTab)
		seg.groupMap = seg.groups.remap(s.tweets.groupTab)
		// Rebuild what live ingestion derived from these rows, in row
		// order: the dedup index entry and the group skeleton (exactly
		// AddTweetBatch's non-duplicate path; canonical URLs arrive later,
		// from the replayed "grp" events, as on any resume).
		base := s.tweets.frozen
		for j := 0; j < seg.n; j++ {
			s.seenTweets.Put(seg.ids[j], uint32(base+j))
			p := platform.Platform(seg.plat[j])
			code := s.tweets.groupTab.Lookup(seg.groupMap[seg.group[j]])
			_, st := s.groups.stripeFor(p, code)
			st.mu.Lock()
			row, _ := s.groups.upsertLocked(st, p, code, nanoToTime(seg.created[j]))
			st.flags[row] |= gfSeenTwitter
			st.tweets[row]++
			st.mu.Unlock()
		}
		s.tweets.segs = append(s.tweets.segs, seg)
		s.tweets.frozen += seg.n
		sp.note(famTweets, pin.Name, pin.Rows, pin.Bytes, f)
	}
	return nil
}

func (s *Store) restoreControlSegs(fam checkpoint.SpillFamily) error {
	sp := s.spill
	for _, pin := range fam.Segments {
		f, err := sp.openPinned(famControl, pin)
		if err != nil {
			return err
		}
		seg, err := bindControlSeg(f, s.control.frozen)
		if err != nil {
			unmapFile(f.data)
			return err
		}
		seg.userMap = seg.users.remap(s.control.userTab)
		seg.langMap = seg.langs.remap(s.control.langTab)
		s.control.segs = append(s.control.segs, seg)
		s.control.frozen += seg.n
		sp.note(famControl, pin.Name, pin.Rows, pin.Bytes, f)
	}
	return nil
}

func (s *Store) restoreMsgSegs(fam checkpoint.SpillFamily) error {
	sp := s.spill
	for _, pin := range fam.Segments {
		f, err := sp.openPinned(famMessages, pin)
		if err != nil {
			return err
		}
		seg, err := bindMsgSeg(f, s.msgs.frozen)
		if err != nil {
			unmapFile(f.data)
			return err
		}
		seg.groupMap = seg.groups.remap(s.msgs.groupTab)
		s.msgs.segs = append(s.msgs.segs, seg)
		s.msgs.frozen += seg.n
		sp.note(famMessages, pin.Name, pin.Rows, pin.Bytes, f)
	}
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
		for _, segs := range sp.fams {
			out.Segments += len(segs)
			for _, sg := range segs {
				out.SegBytes += sg.bytes
			}
		}
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
