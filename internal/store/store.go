// Package store holds the study's collected dataset: tweets, discovered
// group URLs, daily observations, joined-group data, messages, and observed
// users. Following the paper's ethics statement, phone numbers are never
// stored as such — only one-way SHA-256 hashes.
//
// Layout: every record family is stored columnar (struct-of-arrays; see
// columnar.go for tweets/control/messages, groupcols.go for groups and
// their observation series) with string fields interned to uint32 handles
// and high-cardinality text in byte arenas, so the paper-scale corpus
// (~2.2M tweets, ~8.3M messages, ~56K groups × 38 daily observations)
// fits in a fraction of the former slice-of-structs footprint. The tweet
// and post dedup indexes are compact open-addressing tables (ids.U64Map)
// instead of Go maps. Readers get list views (TweetList, ControlList,
// MessageList, GroupList, ObsList) that reconstruct record values on
// demand without allocating.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
)

// HashPhone returns the one-way hash under which a phone number is stored.
func HashPhone(phone string) string {
	h := sha256.Sum256([]byte(phone))
	return hex.EncodeToString(h[:])
}

// PhoneKey derives a stable 64-bit user key from a phone number (FNV-1a) so
// the same person observed via different surfaces (landing-page creator,
// group member) deduplicates to one UserRecord.
func PhoneKey(phone string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(phone); i++ {
		h ^= uint64(phone[i])
		h *= prime64
	}
	return h
}

// TweetSource records which collection path produced a tweet.
type TweetSource int

// Tweet sources; a tweet seen by both APIs carries both bits.
const (
	SourceSearch TweetSource = 1 << iota
	SourceStream
)

// TweetRecord is one collected tweet that carried a group URL.
type TweetRecord struct {
	ID        uint64            `json:"id"`
	UserID    string            `json:"user_id"`
	CreatedAt time.Time         `json:"created_at"`
	Lang      string            `json:"lang"`
	Hashtags  int               `json:"hashtags"`
	Mentions  int               `json:"mentions"`
	Retweet   bool              `json:"retweet"`
	Text      string            `json:"text"`
	Platform  platform.Platform `json:"platform"`
	GroupCode string            `json:"group_code"`
	Source    TweetSource       `json:"source"`
}

// ControlRecord is one control-stream tweet (features only; the control
// analysis never needs the text).
type ControlRecord struct {
	ID        uint64    `json:"id"`
	UserID    string    `json:"user_id"`
	CreatedAt time.Time `json:"created_at"`
	Lang      string    `json:"lang"`
	Hashtags  int       `json:"hashtags"`
	Mentions  int       `json:"mentions"`
	Retweet   bool      `json:"retweet"`
}

// GroupRecord is one discovered group URL with its discovery bookkeeping
// and the daily observation series.
type GroupRecord struct {
	Platform  platform.Platform `json:"platform"`
	Code      string            `json:"code"`
	Canonical string            `json:"canonical"`
	FirstSeen time.Time         `json:"first_seen"` // first share observed (any source)
	LastSeen  time.Time         `json:"last_seen"`
	Tweets    int               `json:"tweets"` // tweets sharing this URL
	// Cross-source discovery bookkeeping: which collection surfaces saw
	// this URL (the future-work second source writes SeenSocial).
	SeenTwitter bool `json:"seen_twitter,omitempty"`
	SeenSocial  bool `json:"seen_social,omitempty"`
	SocialPosts int  `json:"social_posts,omitempty"`

	Observations []Observation `json:"observations,omitempty"`

	// Joined-group data (zero unless the join phase sampled this group).
	Joined        bool      `json:"joined,omitempty"`
	JoinedAt      time.Time `json:"joined_at,omitempty"`
	CreatedAt     time.Time `json:"created_at,omitempty"` // from join or DC snowflake
	HiddenMembers bool      `json:"hidden_members,omitempty"`
	IsChannel     bool      `json:"is_channel,omitempty"`
	Channels      int       `json:"channels,omitempty"`
	MemberCount   int       `json:"member_count,omitempty"` // members at join
	CreatorKey    string    `json:"creator_key,omitempty"`  // member-visible creator

	// Deferred marks a group whose last pipeline request exhausted its
	// retry budget: it stays queued for the next sweep instead of being
	// silently dropped. DeferReason is the stage that deferred it — a
	// short stable constant ("monitor", "join", "collect"), never error
	// text (which may embed unstable detail such as ports).
	Deferred    bool   `json:"deferred,omitempty"`
	DeferReason string `json:"defer_reason,omitempty"`
}

// Observation is one daily metadata probe of a group URL.
type Observation struct {
	At             time.Time `json:"at"`
	Alive          bool      `json:"alive"`
	Title          string    `json:"title,omitempty"`
	Members        int       `json:"members,omitempty"`
	Online         int       `json:"online,omitempty"`
	IsChannel      bool      `json:"is_channel,omitempty"`
	CreatorPhoneH  string    `json:"creator_phone_hash,omitempty"`
	CreatorCountry string    `json:"creator_country,omitempty"`
	// CreatorKey identifies the group creator across groups without
	// exposing raw PII: the phone hash on WhatsApp, the inviter ID on
	// Discord. Empty when the platform hides the creator (Telegram
	// previews).
	CreatorKey string    `json:"creator_key,omitempty"`
	CreatedAt  time.Time `json:"created_at,omitempty"` // Discord snowflake date
}

// MessageRecord is one collected in-group message. AuthorKey is a
// platform-scoped stable identifier (user ID), never a raw phone number.
// Text is present only when the study collects message bodies (the
// toxicity extension needs it; the paper's figures do not).
type MessageRecord struct {
	Platform  platform.Platform    `json:"platform"`
	GroupCode string               `json:"group_code"`
	AuthorKey uint64               `json:"author_key"`
	SentAt    time.Time            `json:"sent_at"`
	Type      platform.MessageType `json:"type"`
	Text      string               `json:"text,omitempty"`
}

// UserRecord is one observed messaging-platform user and the PII the
// platform exposed about them.
type UserRecord struct {
	Platform  platform.Platform `json:"platform"`
	Key       uint64            `json:"key"`
	PhoneHash string            `json:"phone_hash,omitempty"`
	Country   string            `json:"country,omitempty"`
	Linked    []string          `json:"linked,omitempty"`
	// Creator marks users observed only as group creators on landing
	// pages (WhatsApp), as opposed to members of joined groups.
	Creator bool `json:"creator,omitempty"`
}

// Store is the in-memory dataset. It is safe for concurrent use.
//
// Concurrency model: each record family has one mutex. tweetMu covers
// tweets, control, posts, and their dedup maps; msgMu covers messages;
// groups.mu covers the group columns, the observation series and the
// sorted group index; users.mu covers the user columns, the countries
// table and the sorted user index. One lock per keyed family suffices:
// the study's writers spend their time in HTTP round trips, not in the
// store, and finer locking measured no gain (DESIGN.md §12).
//
// Lock order: every path that holds more than one family lock acquires a
// subsequence of one total order,
//
//	tweetMu → msgMu → groups.mu → users.mu
//
// so none can deadlock. AddTweetBatch holds tweetMu while it records the
// batch's groups under groups.mu, so a tweet and its group land together;
// Snapshot takes all four to freeze the dataset at once.
type Store struct {
	tweetMu sync.Mutex
	tweets  tweetCols
	control controlCols
	posts   []PostRecord

	seenTweets *ids.U64Map // tweet id -> row in tweets
	seenPosts  *ids.U64Map // post id -> seen (value unused)

	// Checkpoint dirty tracking (armed by OpenCheckpointWriter, both
	// guarded by tweetMu): rows below ckTweetMark were already written to
	// the checkpoint log, so a later source-bit merge records them in
	// ckDirtyTweets for re-emission. Nil when checkpointing is off.
	ckTweetMark   int
	ckDirtyTweets map[uint32]struct{}

	msgMu sync.Mutex
	msgs  msgCols

	groups *groupTable
	users  *userTable

	// spill is the segment-spilling driver (nil when no memory budget is
	// set); see spill.go and DESIGN.md §16.
	spill *spillState
}

// New returns an empty Store.
func New() *Store {
	userTab, langTab := ids.NewTable(), ids.NewTable()
	return &Store{
		tweets:     newTweetCols(userTab, langTab),
		control:    newControlCols(userTab, langTab),
		msgs:       newMsgCols(),
		seenTweets: ids.NewU64Map(0),
		seenPosts:  ids.NewU64Map(0),
		groups:     newGroupTable(),
		users:      newUserTable(),
	}
}

// groupKey and userKey are comparable struct keys: building one is
// allocation-free, unlike a "platform/code" string concatenation would be
// on every map probe of the hot ingest paths.
type groupKey struct {
	p    platform.Platform
	code string
}

type userKey struct {
	p   platform.Platform
	key uint64
}

// TweetIngest couples a tweet record with the canonical URL of its group,
// so a batch insert can record both under one lock acquisition.
type TweetIngest struct {
	Tweet     TweetRecord
	Canonical string
}

// AddTweet records a tweet carrying a group URL. If the tweet was already
// seen (by the other API), sources are merged and the duplicate dropped.
// It returns true if the group URL was never seen before (a discovery).
func (s *Store) AddTweet(t TweetRecord) (newGroup bool) {
	return s.AddTweetBatch([]TweetIngest{{Tweet: t}}) == 1
}

// AddTweetBatch records a batch of tweets in order, taking the tweet and
// group family locks once instead of a lock pair per tweet. Duplicates
// (already seen by the other API) get their source bits merged and are
// dropped. Canonical URLs are recorded for groups discovered by this
// batch; a group first shared twice in one batch keeps the first
// occurrence's. It returns how many group URLs were never seen before
// (discoveries).
func (s *Store) AddTweetBatch(batch []TweetIngest) (newGroups int) {
	if len(batch) == 0 {
		return 0
	}
	gt := s.groups
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	gt.mu.Lock()
	defer gt.mu.Unlock()
	for i := range batch {
		t := &batch[i].Tweet
		if row, dup := s.seenTweets.Get(t.ID); dup {
			if s.tweets.orFlags(int(row), uint8(t.Source)&flagSourceMask) {
				if s.ckDirtyTweets != nil && int(row) < s.ckTweetMark {
					s.ckDirtyTweets[row] = struct{}{}
				}
			}
			continue
		}
		s.seenTweets.Put(t.ID, uint32(s.tweets.len()))
		s.tweets.append(t)
		row, isNew := gt.upsertLocked(t.Platform, t.GroupCode, t.CreatedAt)
		gt.flags[row] |= gfSeenTwitter
		gt.tweets[row]++
		if isNew {
			newGroups++
			if c := batch[i].Canonical; c != "" {
				gt.canonical[row] = gt.tab.Handle(c)
			}
		}
	}
	return newGroups
}

// PostRecord is one collected secondary-network post carrying a group URL.
type PostRecord struct {
	ID        uint64            `json:"id"`
	Author    string            `json:"author"`
	CreatedAt time.Time         `json:"created_at"`
	Text      string            `json:"text"`
	Platform  platform.Platform `json:"platform"`
	GroupCode string            `json:"group_code"`
}

// AddPost records a secondary-network post; it returns true when the group
// URL was never seen before on ANY source. Unlike the former lazy map, the
// dedup index is allocated in New alongside seenTweets, so both paths
// share one construction story.
func (s *Store) AddPost(p PostRecord) (newGroup bool) {
	s.tweetMu.Lock()
	if _, dup := s.seenPosts.Get(p.ID); dup {
		s.tweetMu.Unlock()
		return false
	}
	s.seenPosts.Put(p.ID, 0)
	s.posts = append(s.posts, p)
	s.tweetMu.Unlock()

	gt := s.groups
	gt.mu.Lock()
	row, isNew := gt.upsertLocked(p.Platform, p.GroupCode, p.CreatedAt)
	gt.flags[row] |= gfSeenSocial
	gt.socialPosts[row]++
	gt.mu.Unlock()
	return isNew
}

// Posts returns all collected secondary-network posts.
func (s *Store) Posts() []PostRecord {
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	return s.posts
}

// AddControl records one control-stream tweet.
func (s *Store) AddControl(c ControlRecord) {
	s.tweetMu.Lock()
	s.control.append(&c)
	s.tweetMu.Unlock()
}

// AddControlBatch appends a batch of control tweets under one lock
// acquisition.
func (s *Store) AddControlBatch(batch []ControlRecord) {
	if len(batch) == 0 {
		return
	}
	s.tweetMu.Lock()
	for i := range batch {
		s.control.append(&batch[i])
	}
	s.tweetMu.Unlock()
}

// Group returns the record for a discovered group, with its observation
// series materialized (ok=false if unknown). The record is a value copy:
// mutating it does not touch the store, and its strings alias the store's
// interned memory.
func (s *Store) Group(p platform.Platform, code string) (GroupRecord, bool) {
	return s.groups.lookup(p, code)
}

// SetCanonical records the canonical URL of a group.
func (s *Store) SetCanonical(p platform.Platform, code, canonical string) {
	gt := s.groups
	gt.mu.Lock()
	if row, ok := gt.m[groupKey{p, code}]; ok {
		gt.canonical[row] = gt.tab.Handle(canonical)
	}
	gt.mu.Unlock()
}

// AddObservation appends a daily probe to a group's series and clears any
// deferral. Unknown keys are a no-op, as with the mutation closures.
func (s *Store) AddObservation(p platform.Platform, code string, o Observation) {
	s.AddObservationBatch(p, []string{code}, []Observation{o})
}

// AddObservationBatch appends obs[i] to the series of group (p, codes[i])
// for every i, in order, under one acquisition of the group family lock,
// with AddObservation's per-probe semantics: each observed group's
// deferral is cleared, unknown keys are skipped.
func (s *Store) AddObservationBatch(p platform.Platform, codes []string, obs []Observation) {
	gt := s.groups
	gt.mu.Lock()
	for i, code := range codes {
		if row, ok := gt.m[groupKey{p, code}]; ok {
			gt.appendObsLocked(row, &obs[i])
			gt.flags[row] &^= gfDeferred
			gt.deferReason[row] = 0
		}
	}
	gt.mu.Unlock()
}

// MarkJoined records join-phase metadata on a group.
func (s *Store) MarkJoined(p platform.Platform, code string, update func(*GroupRecord)) {
	s.groups.with(p, code, func(g *GroupRecord) {
		g.Joined = true
		g.Deferred = false
		g.DeferReason = ""
		update(g)
	})
}

// MarkDeferred flags a group whose request exhausted its retry budget, so
// it is retried on the next sweep rather than silently dropped. A later
// successful observation or join clears the flag. Written straight to the
// flag and reason columns: the sweep calls this on every fault, so it must
// stay allocation-free (reasons are short stable constants, interned once).
func (s *Store) MarkDeferred(p platform.Platform, code, reason string) {
	gt := s.groups
	gt.mu.Lock()
	if row, ok := gt.m[groupKey{p, code}]; ok {
		gt.flags[row] |= gfDeferred
		gt.deferReason[row] = gt.tab.Handle(reason)
	}
	gt.mu.Unlock()
}

// AddMessage records one collected message.
func (s *Store) AddMessage(m MessageRecord) {
	s.msgMu.Lock()
	s.msgs.append(&m)
	s.msgMu.Unlock()
}

// AddMessageBatch appends pages of messages, in order, under one lock
// acquisition (message collection hands over a whole phase's pages at
// once). Without a memory budget the message columns grow once by the
// total, so an empty family ends at its exact size instead of regrowing
// page by page.
func (s *Store) AddMessageBatch(pages ...[]MessageRecord) {
	s.msgMu.Lock()
	sp := s.spill
	budgeted := sp != nil && sp.cfg.Budget > 0
	if !budgeted {
		total := 0
		for _, page := range pages {
			total += len(page)
		}
		s.msgs.grow(total)
	}
	for _, page := range pages {
		if len(page) == 0 {
			continue
		}
		for i := range page {
			s.msgs.append(&page[i])
		}
		// Waiting for the next boundary SpillCheck would let the heap blow
		// far past the budget, so seal mid-ingest once this family alone
		// holds half of it. Segment boundaries never affect row content or
		// order, so output determinism is untouched by when this fires.
		if budgeted && s.msgs.heapBytes() > sp.cfg.Budget/2 {
			if err := s.sealMessagesLocked(); err != nil {
				sp.fail(err)
			}
		}
	}
	s.msgMu.Unlock()
}

// UpsertUser merges an observed user's PII into the dataset.
func (s *Store) UpsertUser(u UserRecord) {
	s.users.upsert(&u)
}

// UpsertUserBatch merges a batch of observed users under one acquisition
// of the user family lock. Merging is commutative across batches (fields fill
// in, Linked accumulates as a set, Creator only ever clears), so
// concurrent batches land in the same final state regardless of
// interleaving.
func (s *Store) UpsertUserBatch(batch []UserRecord) {
	ut := s.users
	ut.mu.Lock()
	for i := range batch {
		ut.upsertLocked(&batch[i])
	}
	ut.mu.Unlock()
}

func mergeStrings(a, b []string) []string {
	set := map[string]struct{}{}
	for _, s := range a {
		set[s] = struct{}{}
	}
	for _, s := range b {
		set[s] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Tweets returns a read-only view of the collected platform tweets, in
// collection order.
func (s *Store) Tweets() TweetList {
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	return TweetList{c: s.tweets.view(), all: true}
}

// Control returns a read-only view of the control tweets.
func (s *Store) Control() ControlList {
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	return ControlList{c: s.control.view()}
}

// Groups returns a view of all discovered groups, sorted by platform then
// code for deterministic iteration. The view resolves a sorted row index
// against one snapshot of the column headers, so taking one is O(1) once
// the index is current.
func (s *Store) Groups() GroupList {
	return s.groups.groups()
}

// GroupsOf returns the view of one platform's discovered groups, sorted by
// code, served from the per-platform partition of the group index.
func (s *Store) GroupsOf(p platform.Platform) GroupList {
	return s.groups.groupsOf(p)
}

// Messages returns a read-only view of all collected messages.
func (s *Store) Messages() MessageList {
	s.msgMu.Lock()
	defer s.msgMu.Unlock()
	return MessageList{c: s.msgs.view(), all: true}
}

// Users returns all observed users, sorted by platform then key. Each call
// materializes fresh records from the columnar family (strings stay
// shared), so callers must not expect pointer identity across calls.
func (s *Store) Users() []*UserRecord {
	return s.users.users()
}

// Counts summarizes the dataset per platform (the raw material of Table 2).
type Counts struct {
	Tweets       int
	TweetUsers   int
	GroupURLs    int
	JoinedGroups int
	Messages     int
	MessageUsers int
}

// CountsFor computes the Table 2 row of one platform. Each record family
// is read under its own lock; the counts are mutually consistent once
// collection has quiesced (the only time the report layer reads them).
// Distinct users are counted by interned handle, which is cheaper than
// hashing strings and bijective with them.
func (s *Store) CountsFor(p platform.Platform) Counts {
	var c Counts

	s.tweetMu.Lock()
	tweetUsers := map[uint32]struct{}{}
	for i, n := 0, s.tweets.len(); i < n; i++ {
		if s.tweets.platAt(i) != uint8(p) {
			continue
		}
		c.Tweets++
		tweetUsers[s.tweets.userHandle(i)] = struct{}{}
	}
	s.tweetMu.Unlock()
	c.TweetUsers = len(tweetUsers)

	c.GroupURLs, c.JoinedGroups = s.groups.countFor(p)

	s.msgMu.Lock()
	msgUsers := map[uint64]struct{}{}
	for i, n := 0, s.msgs.len(); i < n; i++ {
		if s.msgs.platAt(i) != uint8(p) {
			continue
		}
		c.Messages++
		msgUsers[s.msgs.authorKey(i)] = struct{}{}
	}
	s.msgMu.Unlock()
	c.MessageUsers = len(msgUsers)
	return c
}
