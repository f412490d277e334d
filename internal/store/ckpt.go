package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"msgscope/internal/checkpoint"
	"msgscope/internal/platform"
)

// Checkpoint record logs. The store is the durable record stream of a
// resumable study: every phase boundary appends the records ingested since
// the previous boundary to these JSONL logs and fsyncs them, and the run
// manifest (internal/checkpoint) pins the durable byte/record prefix of
// each. On resume the logs are truncated to the manifest's offsets and
// replayed through the same ingestion paths the live run used, which
// rebuilds not just the record families but every derived index and
// counter (dedup tables, group skeletons, discovery bookkeeping).
//
// Five logs cover the six record families:
//
//   - log.tweets.jsonl / log.control.jsonl / log.posts.jsonl /
//     log.messages.jsonl: the append-only families, written incrementally
//     (rows past a per-family mark). A tweet first seen before the last
//     checkpoint can still change afterwards — the other API merges its
//     source bits — so such rows are tracked in a dirty set and
//     re-appended; replay re-merges them idempotently.
//   - log.events.jsonl: the keyed families' deltas. New observations are
//     walked off each group's chain past a per-group tail mark;
//     mutation-owned group scalars (join data, deferrals, canonical URL)
//     are re-emitted when their fingerprint changes; users are emitted
//     when new or when a merge actually changed their row.
//
// Replay order is tweets, control, posts, messages, then events. Derived
// group state (first/last-seen, tweet and social-post counts, seen-source
// bits) is rebuilt by the record replay and never applied from events;
// event replay applies observations in per-group series order and then
// asserts the mutation-owned scalars, so a deferral cleared by a later
// observation and re-asserted by a later deferral lands in the recorded
// final state regardless of how the two interleaved between boundaries.
//
// The writer assumes observation chains are not compacted while it is
// open (compaction only runs under Snapshot, after the run), and that
// captures happen at quiesced phase boundaries (no concurrent writers).
const (
	logTweets   = "log.tweets.jsonl"
	logControl  = "log.control.jsonl"
	logPosts    = "log.posts.jsonl"
	logMessages = "log.messages.jsonl"
	logEvents   = "log.events.jsonl"
)

var logNames = []string{logTweets, logControl, logPosts, logMessages, logEvents}

// ckEvent is one keyed-family delta in log.events.jsonl.
type ckEvent struct {
	Kind  string            `json:"k"` // "obs" | "grp" | "usr"
	Plat  platform.Platform `json:"p,omitempty"`
	Code  string            `json:"c,omitempty"`
	Obs   *Observation      `json:"o,omitempty"`
	Group *GroupRecord      `json:"g,omitempty"` // scalars only, Observations nil
	User  *UserRecord       `json:"u,omitempty"`
}

// gfMutOwned are the group flag bits owned by mutation APIs (MarkJoined,
// MarkDeferred, observation deferral-clearing) rather than rebuilt by
// record replay; event replay overwrites exactly these.
const gfMutOwned = gfJoined | gfHiddenMembers | gfIsChannel | gfDeferred

// grpFP fingerprints a group's mutation-owned scalars so the writer emits
// a "grp" event only when one of them changed since the last checkpoint.
// Handles compare exactly (they are stable for the writer's lifetime);
// derived fields are deliberately absent so per-mention churn (last-seen,
// tweet counts) does not re-emit every active group daily.
type grpFP struct {
	flags       uint8
	canonical   uint32
	creatorKey  uint32
	deferReason uint32
	joinedAt    int64
	createdAt   int64
	members     int32
	channels    int32
}

func (gt *groupTable) fpLocked(row uint32) grpFP {
	return grpFP{
		flags:       gt.flags[row] & gfMutOwned,
		canonical:   gt.canonical[row],
		creatorKey:  gt.creatorKey[row],
		deferReason: gt.deferReason[row],
		joinedAt:    gt.joinedAt[row],
		createdAt:   gt.createdAt[row],
		members:     gt.members[row],
		channels:    gt.channels[row],
	}
}

// ErrCorruptLog is wrapped by every LoadCheckpoint rejection: a log
// shorter than its manifest prefix, an undecodable line, a record count
// that disagrees with the manifest, or an event replay cannot apply.
var ErrCorruptLog = errors.New("store: corrupt checkpoint log")

// ckLog is one append log: a buffered file plus durable offset counters.
// Its encoder writes through the log's own Write, so bytes counts exactly
// what reaches the file.
type ckLog struct {
	f       *os.File
	bw      *bufio.Writer
	enc     *json.Encoder
	bytes   int64
	records int64
	synced  int64 // bytes at last fsync
}

func newCkLog(f *os.File, st checkpoint.LogState) *ckLog {
	l := &ckLog{f: f, bw: bufio.NewWriter(f), bytes: st.Bytes, records: st.Records, synced: st.Bytes}
	l.enc = json.NewEncoder(l)
	return l
}

func (l *ckLog) Write(p []byte) (int, error) {
	n, err := l.bw.Write(p)
	l.bytes += int64(n)
	return n, err
}

// append encodes v as one line of the log.
func (l *ckLog) append(v any) error {
	if err := l.enc.Encode(v); err != nil {
		return err
	}
	l.records++
	return nil
}

func (l *ckLog) sync() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if l.bytes == l.synced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.synced = l.bytes
	return nil
}

func (l *ckLog) state() checkpoint.LogState {
	return checkpoint.LogState{Bytes: l.bytes, Records: l.records}
}

// grpMarks is the writer's group capture state: the observation-chain
// tail and scalar fingerprint of each row at the last checkpoint. Rows at
// or past len(fp) are new since then.
type grpMarks struct {
	obsTail []uint32
	fp      []grpFP
}

// CheckpointWriter appends a store's record deltas to the checkpoint logs
// of one directory. Captures must run at quiesced phase boundaries; the
// writer itself is not safe for concurrent use.
type CheckpointWriter struct {
	s    *Store
	dir  string
	logs map[string]*ckLog

	ctlMark  int
	postMark int
	msgMark  int
	grp      grpMarks
}

// OpenCheckpointWriter creates (or truncates) the record logs under dir,
// enables the store's dirty tracking, and takes the current store contents
// as the already-captured baseline. For a fresh run the store is empty and
// the first Checkpoint captures everything.
func (s *Store) OpenCheckpointWriter(dir string) (*CheckpointWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &CheckpointWriter{s: s, dir: dir, logs: map[string]*ckLog{}}
	for _, name := range logNames {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.logs[name] = newCkLog(f, checkpoint.LogState{})
	}
	w.enableTracking()
	if err := w.capture(false); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// ResumeCheckpointWriter reopens dir's record logs for appending after
// LoadCheckpoint restored the store from them. Each log is truncated to
// the manifest's durable prefix (dropping anything a crash appended past
// the last checkpoint), and the restored store contents become the
// baseline.
func (s *Store) ResumeCheckpointWriter(dir string, logs map[string]checkpoint.LogState) (*CheckpointWriter, error) {
	w := &CheckpointWriter{s: s, dir: dir, logs: map[string]*ckLog{}}
	for _, name := range logNames {
		st, ok := logs[name]
		if !ok {
			w.Close()
			return nil, fmt.Errorf("store: manifest missing log state for %s", name)
		}
		path := filepath.Join(dir, name)
		if err := truncateLog(path, st.Bytes); err != nil {
			w.Close()
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.logs[name] = newCkLog(f, st)
	}
	w.enableTracking()
	if err := w.capture(false); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func truncateLog(path string, size int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.Size() < size {
		return fmt.Errorf("store: %s is %d bytes, shorter than the %d the manifest recorded", path, fi.Size(), size)
	}
	if fi.Size() == size {
		return nil
	}
	return os.Truncate(path, size)
}

// enableTracking arms the store's cross-checkpoint dirty sets (merged
// tweet sources, re-merged users). Called before any concurrent ingestion
// starts, so the plain fields publish via the run's startup ordering.
func (w *CheckpointWriter) enableTracking() {
	s := w.s
	s.tweetMu.Lock()
	s.ckDirtyTweets = map[uint32]struct{}{}
	s.ckTweetMark = 0
	s.tweetMu.Unlock()
	s.users.mu.Lock()
	s.users.ckDirty = map[uint32]struct{}{}
	s.users.mu.Unlock()
}

// Checkpoint appends every record ingested or changed since the previous
// capture to the logs, fsyncs them, and returns the durable log states for
// the manifest.
func (w *CheckpointWriter) Checkpoint() (map[string]checkpoint.LogState, error) {
	if err := w.capture(true); err != nil {
		return nil, err
	}
	out := make(map[string]checkpoint.LogState, len(w.logs))
	for name, l := range w.logs {
		if err := l.sync(); err != nil {
			return nil, fmt.Errorf("store: syncing %s: %w", name, err)
		}
		out[name] = l.state()
	}
	return out, nil
}

// capture walks each family's delta since the last capture. With emit set
// it appends the records to the logs; without, it only advances the marks
// (the open/resume baseline).
func (w *CheckpointWriter) capture(emit bool) error {
	s := w.s
	// One reused record per family: the encoder takes a pointer, so
	// only the variable escapes, not every row.
	var (
		t TweetRecord
		c ControlRecord
		m MessageRecord
	)

	// Tweet-family logs (tweets, control, posts) under tweetMu.
	s.tweetMu.Lock()
	err := func() error {
		if emit {
			for i := s.ckTweetMark; i < s.tweets.len(); i++ {
				t = s.tweets.at(i)
				if err := w.logs[logTweets].append(&t); err != nil {
					return err
				}
			}
			// Rows merged across the boundary are re-appended with their
			// final source bits; replay ORs them back in.
			dirty := make([]uint32, 0, len(s.ckDirtyTweets))
			for row := range s.ckDirtyTweets {
				dirty = append(dirty, row)
			}
			slices.Sort(dirty)
			for _, row := range dirty {
				t = s.tweets.at(int(row))
				if err := w.logs[logTweets].append(&t); err != nil {
					return err
				}
			}
			for i := w.ctlMark; i < s.control.len(); i++ {
				c = s.control.at(i)
				if err := w.logs[logControl].append(&c); err != nil {
					return err
				}
			}
			for i := w.postMark; i < len(s.posts); i++ {
				if err := w.logs[logPosts].append(&s.posts[i]); err != nil {
					return err
				}
			}
		}
		s.ckTweetMark = s.tweets.len()
		clear(s.ckDirtyTweets)
		w.ctlMark = s.control.len()
		w.postMark = len(s.posts)
		return nil
	}()
	s.tweetMu.Unlock()
	if err != nil {
		return err
	}

	s.msgMu.Lock()
	err = func() error {
		if emit {
			for i := w.msgMark; i < s.msgs.len(); i++ {
				m = s.msgs.at(i)
				if err := w.logs[logMessages].append(&m); err != nil {
					return err
				}
			}
		}
		w.msgMark = s.msgs.len()
		return nil
	}()
	s.msgMu.Unlock()
	if err != nil {
		return err
	}

	if err := w.captureGroups(emit); err != nil {
		return err
	}
	return w.captureUsers(emit)
}

// captureGroups emits new observations (chain rows past each group's tail
// mark, immediately followed by that group's scalar event if its
// fingerprint moved).
func (w *CheckpointWriter) captureGroups(emit bool) error {
	events := w.logs[logEvents]
	gt := w.s.groups
	marks := &w.grp
	gt.mu.Lock()
	defer gt.mu.Unlock()
	for row := 0; row < gt.len(); row++ {
		r := uint32(row)
		isNew := row >= len(marks.fp)
		var tail uint32
		if !isNew {
			tail = marks.obsTail[row]
		}
		if emit {
			// Walk the chain from the marked tail (or the head for new
			// groups) and emit the rows appended since.
			next := gt.obsHead[r]
			if tail != 0 {
				next = gt.obs.nextAt(int(tail - 1))
			}
			p, code := platform.Platform(gt.plat[r]), gt.tab.Lookup(gt.code[r])
			for i := next; i != 0; i = gt.obs.nextAt(int(i - 1)) {
				o := gt.obs.recordAt(i-1, gt.tab)
				if err := events.append(&ckEvent{Kind: "obs", Plat: p, Code: code, Obs: &o}); err != nil {
					return err
				}
			}
			if fp := gt.fpLocked(r); isNew || fp != marks.fp[row] {
				g := gt.scalarsLocked(r)
				if err := events.append(&ckEvent{Kind: "grp", Group: &g}); err != nil {
					return err
				}
			}
		}
		if isNew {
			marks.obsTail = append(marks.obsTail, gt.obsTail[r])
			marks.fp = append(marks.fp, gt.fpLocked(r))
		} else {
			marks.obsTail[row] = gt.obsTail[r]
			marks.fp[row] = gt.fpLocked(r)
		}
	}
	return nil
}

// captureUsers emits new rows past the mark plus rows whose merge actually
// changed state since the last capture, in row order.
func (w *CheckpointWriter) captureUsers(emit bool) error {
	events := w.logs[logEvents]
	ut := w.s.users
	ut.mu.Lock()
	defer ut.mu.Unlock()
	n := uint32(len(ut.key))
	if emit {
		rows := make([]uint32, 0, int(n)-int(ut.ckMark)+len(ut.ckDirty))
		for row := range ut.ckDirty {
			rows = append(rows, row)
		}
		for row := ut.ckMark; row < n; row++ {
			rows = append(rows, row)
		}
		slices.Sort(rows)
		for _, row := range rows {
			u := ut.recordLocked(row)
			if err := events.append(&ckEvent{Kind: "usr", User: &u}); err != nil {
				return err
			}
		}
	}
	ut.ckMark = n
	clear(ut.ckDirty)
	return nil
}

// Close flushes and closes the log files and disarms the store's dirty
// tracking. It does not fsync: only Checkpoint makes state durable.
func (w *CheckpointWriter) Close() error {
	var first error
	for _, l := range w.logs {
		if l == nil {
			continue
		}
		if err := l.bw.Flush(); err != nil && first == nil {
			first = err
		}
		if err := l.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s := w.s
	s.tweetMu.Lock()
	s.ckDirtyTweets = nil
	s.ckTweetMark = 0
	s.tweetMu.Unlock()
	s.users.mu.Lock()
	s.users.ckDirty = nil
	s.users.ckMark = 0
	s.users.mu.Unlock()
	return first
}

// LoadCheckpoint replays dir's record logs into the (empty) store, exactly
// up to the durable prefixes the manifest recorded: each log is truncated
// to its manifest offset first, and the number of replayed records is
// verified against the manifest's count. Replay goes through the live
// ingestion paths, so every derived index (dedup tables, group skeletons,
// discovery bookkeeping, per-group series) is rebuilt as a side effect.
//
// The logs are the only durable state: a store with a spill budget
// re-seals as it replays — SpillCheck runs after every tweet, control and
// event batch, and messages seal themselves during ingest — so a resume
// stays within the budget the live run kept.
func (s *Store) LoadCheckpoint(dir string, logs map[string]checkpoint.LogState) error {
	// A failed seal is an I/O error, not log corruption: keep it apart
	// from the ErrCorruptLog wrapping below.
	var sealErr error
	spillCheck := func() error {
		sealErr = s.SpillCheck()
		return sealErr
	}
	replay := func(name string, run func(path string) (int64, error)) error {
		st, ok := logs[name]
		if !ok {
			return fmt.Errorf("%w: manifest missing log state for %s", ErrCorruptLog, name)
		}
		path := filepath.Join(dir, name)
		if err := truncateLog(path, st.Bytes); err != nil {
			return fmt.Errorf("%w: %w", ErrCorruptLog, err)
		}
		n, err := run(path)
		if sealErr != nil {
			return fmt.Errorf("store: spilling while replaying %s: %w", name, sealErr)
		}
		if err != nil {
			return fmt.Errorf("%w: replaying %s: %w", ErrCorruptLog, name, err)
		}
		if n != st.Records {
			return fmt.Errorf("%w: %s replayed %d records, manifest recorded %d", ErrCorruptLog, name, n, st.Records)
		}
		return nil
	}

	ingest := make([]TweetIngest, jsonlBatchSize)
	if err := replay(logTweets, func(path string) (int64, error) {
		var n int64
		err := loadFileStream(path, make([]TweetRecord, jsonlBatchSize), func(batch []TweetRecord) error {
			for i := range batch {
				ingest[i] = TweetIngest{Tweet: batch[i]}
			}
			s.AddTweetBatch(ingest[:len(batch)])
			n += int64(len(batch))
			return spillCheck()
		})
		return n, err
	}); err != nil {
		return err
	}
	if err := replay(logControl, func(path string) (int64, error) {
		var n int64
		err := loadFileStream(path, make([]ControlRecord, jsonlBatchSize), func(batch []ControlRecord) error {
			s.AddControlBatch(batch)
			n += int64(len(batch))
			return spillCheck()
		})
		return n, err
	}); err != nil {
		return err
	}
	// Posts replay through AddPost for its side effects (dedup index,
	// seen-social bits, social-post counts) — unlike Save/Load, there is
	// no authoritative groups.jsonl carrying them.
	if err := replay(logPosts, func(path string) (int64, error) {
		var n int64
		err := loadFileStream(path, make([]PostRecord, jsonlBatchSize), func(batch []PostRecord) error {
			for i := range batch {
				s.AddPost(batch[i])
			}
			n += int64(len(batch))
			return nil
		})
		return n, err
	}); err != nil {
		return err
	}
	if err := replay(logMessages, func(path string) (int64, error) {
		var n int64
		err := loadFileStream(path, make([]MessageRecord, jsonlBatchSize), func(batch []MessageRecord) error {
			s.AddMessageBatch(batch)
			n += int64(len(batch))
			return nil
		})
		return n, err
	}); err != nil {
		return err
	}
	return replay(logEvents, func(path string) (int64, error) {
		var n int64
		err := loadFileStream(path, make([]ckEvent, jsonlBatchSize), func(batch []ckEvent) error {
			for i := range batch {
				if err := s.applyEvent(&batch[i]); err != nil {
					return err
				}
			}
			n += int64(len(batch))
			return spillCheck()
		})
		return n, err
	})
}

// applyEvent replays one keyed-family delta.
func (s *Store) applyEvent(e *ckEvent) error {
	switch e.Kind {
	case "obs":
		if e.Obs == nil {
			return fmt.Errorf("obs event without observation")
		}
		gt := s.groups
		gt.mu.Lock()
		row, ok := gt.m[groupKey{e.Plat, e.Code}]
		if ok {
			gt.appendObsLocked(row, e.Obs)
			gt.flags[row] &^= gfDeferred
			gt.deferReason[row] = 0
		}
		gt.mu.Unlock()
		if !ok {
			return fmt.Errorf("observation for unknown group %v/%s", e.Plat, e.Code)
		}
	case "grp":
		if e.Group == nil {
			return fmt.Errorf("grp event without record")
		}
		g := e.Group
		gt := s.groups
		gt.mu.Lock()
		row, ok := gt.m[groupKey{g.Platform, g.Code}]
		if ok {
			// Overwrite exactly the mutation-owned scalars; derived state
			// (first/last-seen, counts, seen-source bits) was rebuilt by
			// the record replay and may already be ahead of this event.
			var f uint8
			if g.Joined {
				f |= gfJoined
			}
			if g.HiddenMembers {
				f |= gfHiddenMembers
			}
			if g.IsChannel {
				f |= gfIsChannel
			}
			if g.Deferred {
				f |= gfDeferred
			}
			gt.flags[row] = gt.flags[row]&^gfMutOwned | f
			gt.canonical[row] = gt.tab.Handle(g.Canonical)
			gt.creatorKey[row] = gt.tab.Handle(g.CreatorKey)
			gt.deferReason[row] = gt.tab.Handle(g.DeferReason)
			gt.joinedAt[row] = timeToNano(g.JoinedAt)
			gt.createdAt[row] = timeToNano(g.CreatedAt)
			gt.members[row] = int32(g.MemberCount)
			gt.channels[row] = int32(g.Channels)
		}
		gt.mu.Unlock()
		if !ok {
			return fmt.Errorf("scalar event for unknown group %v/%s", g.Platform, g.Code)
		}
	case "usr":
		if e.User == nil {
			return fmt.Errorf("usr event without record")
		}
		s.users.upsert(e.User)
	default:
		return fmt.Errorf("unknown event kind %q", e.Kind)
	}
	return nil
}
