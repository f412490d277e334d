package store

import (
	"time"

	"msgscope/internal/platform"
)

// Snapshot is a frozen, indexed view of the dataset, taken once after a
// study's collection completes. The paper derives every table and figure
// from one immutable 38-day dataset, so the report engine can exploit
// post-collection immutability aggressively: the column views and index
// slices here are shared (never copied per call) and pre-partitioned,
// letting experiments do O(their output) work instead of re-sorting the
// store's maps on each call.
//
// The per-platform and per-day tweet/message partitions are []uint32 row
// indexes into the columnar families — 4 bytes per entry where the former
// layout kept an 8-byte pointer into a slice of structs.
//
// Contract: take the snapshot only after collection has stopped, and treat
// everything it exposes as read-only.
type Snapshot struct {
	Start time.Time
	Days  int

	// Flat family views in collection order.
	Tweets   TweetList
	Control  ControlList
	Posts    []PostRecord
	Messages MessageList

	// Groups and Users are sorted by platform then code/key, matching the
	// store's deterministic iteration order. Groups is a columnar view;
	// every per-platform and joined partition below shares its column
	// snapshot, so the whole group side of a Snapshot costs one set of
	// column headers plus the row slices.
	Groups GroupList
	Users  []*UserRecord

	tweetsByPlat map[platform.Platform]TweetList
	msgsByPlat   map[platform.Platform]MessageList
	groupsByPlat map[platform.Platform]GroupList
	joinedByPlat map[platform.Platform]GroupList
	tweetsByDay  []TweetList
	counts       map[platform.Platform]Counts
}

// Snapshot freezes the store into an indexed view of the study window
// [start, start+days). It sees a mutually consistent dataset even if stray
// writers linger, by taking every lock in the store's documented total
// order — tweetMu, msgMu, groups.mu, users.mu — which no other
// multi-lock path contradicts, so it cannot deadlock.
func (s *Store) Snapshot(start time.Time, days int) *Snapshot {
	s.tweetMu.Lock()
	defer s.tweetMu.Unlock()
	s.msgMu.Lock()
	defer s.msgMu.Unlock()
	gt := s.groups
	gt.mu.Lock()
	defer gt.mu.Unlock()
	s.users.mu.Lock()
	defer s.users.mu.Unlock()

	gt.rebuildLocked()
	// Compact scattered observation chains into group-major order, so the
	// view below (and any later one) serves dense O(1)-addressable series.
	gt.compactLocked()
	groupView := gt.viewLocked()

	tweets := TweetList{c: s.tweets.view(), all: true}
	msgs := MessageList{c: s.msgs.view(), all: true}
	sn := &Snapshot{
		Start:        start,
		Days:         days,
		Tweets:       tweets,
		Control:      ControlList{c: s.control.view()},
		Posts:        s.posts,
		Messages:     msgs,
		Groups:       GroupList{v: groupView, rows: gt.sorted},
		Users:        s.users.materializeLocked(),
		tweetsByPlat: map[platform.Platform]TweetList{},
		msgsByPlat:   map[platform.Platform]MessageList{},
		groupsByPlat: map[platform.Platform]GroupList{},
		joinedByPlat: map[platform.Platform]GroupList{},
		counts:       map[platform.Platform]Counts{},
	}

	// Partition tweets by platform and study day in one pass over the
	// packed columns, counting distinct users by interned handle.
	platIdx := map[platform.Platform][]uint32{}
	dayIdx := make([][]uint32, days)
	tweetUsers := map[platform.Platform]map[uint32]struct{}{}
	startNano := timeToNano(start)
	const dayNanos = int64(24 * time.Hour)
	for i, n := 0, s.tweets.len(); i < n; i++ {
		p := platform.Platform(s.tweets.platAt(i))
		platIdx[p] = append(platIdx[p], uint32(i))
		if c := s.tweets.createdNano(i); c != zeroTimeNano {
			if d := int((c - startNano) / dayNanos); d >= 0 && d < days {
				dayIdx[d] = append(dayIdx[d], uint32(i))
			}
		}
		set := tweetUsers[p]
		if set == nil {
			set = map[uint32]struct{}{}
			tweetUsers[p] = set
		}
		set[s.tweets.userHandle(i)] = struct{}{}
	}
	for p, idx := range platIdx {
		sn.tweetsByPlat[p] = TweetList{c: tweets.c, idx: idx}
	}
	if days > 0 {
		sn.tweetsByDay = make([]TweetList, days)
		for d := range dayIdx {
			sn.tweetsByDay[d] = TweetList{c: tweets.c, idx: dayIdx[d]}
		}
	}

	msgIdx := map[platform.Platform][]uint32{}
	msgUsers := map[platform.Platform]map[uint64]struct{}{}
	for i, n := 0, s.msgs.len(); i < n; i++ {
		p := platform.Platform(s.msgs.platAt(i))
		msgIdx[p] = append(msgIdx[p], uint32(i))
		set := msgUsers[p]
		if set == nil {
			set = map[uint64]struct{}{}
			msgUsers[p] = set
		}
		set[s.msgs.authorKey(i)] = struct{}{}
	}
	for p, idx := range msgIdx {
		sn.msgsByPlat[p] = MessageList{c: msgs.c, idx: idx}
	}

	// The rebuild already partitioned the sorted rows by platform; the
	// partitions share groupView with sn.Groups. Joined rows are gathered
	// off the flag column directly — no record materialization.
	joinedRows := map[platform.Platform][]uint32{}
	for p, rows := range gt.byPlat {
		sn.groupsByPlat[p] = GroupList{v: groupView, rows: rows}
		for _, row := range rows {
			if groupView.flags[row]&gfJoined != 0 {
				joinedRows[p] = append(joinedRows[p], row)
			}
		}
	}
	for p, rows := range joinedRows {
		sn.joinedByPlat[p] = GroupList{v: groupView, rows: rows}
	}
	for _, p := range platform.All {
		sn.counts[p] = Counts{
			Tweets:       len(platIdx[p]),
			TweetUsers:   len(tweetUsers[p]),
			GroupURLs:    sn.groupsByPlat[p].Len(),
			JoinedGroups: sn.joinedByPlat[p].Len(),
			Messages:     len(msgIdx[p]),
			MessageUsers: len(msgUsers[p]),
		}
	}
	return sn
}

// TweetsOf returns one platform's tweets, in collection order.
func (sn *Snapshot) TweetsOf(p platform.Platform) TweetList {
	if l, ok := sn.tweetsByPlat[p]; ok {
		return l
	}
	return TweetList{c: sn.Tweets.c, idx: []uint32{}}
}

// MessagesOf returns one platform's collected messages.
func (sn *Snapshot) MessagesOf(p platform.Platform) MessageList {
	if l, ok := sn.msgsByPlat[p]; ok {
		return l
	}
	return MessageList{c: sn.Messages.c, idx: []uint32{}}
}

// GroupsOf returns one platform's groups, sorted by code. The zero
// GroupList of an absent platform has Len 0.
func (sn *Snapshot) GroupsOf(p platform.Platform) GroupList {
	return sn.groupsByPlat[p]
}

// JoinedOf returns the joined groups of one platform, sorted by code.
func (sn *Snapshot) JoinedOf(p platform.Platform) GroupList {
	return sn.joinedByPlat[p]
}

// TweetsByDay returns the tweets bucketed by zero-based study day; tweets
// outside the window appear in no bucket.
func (sn *Snapshot) TweetsByDay() []TweetList { return sn.tweetsByDay }

// CountsFor returns the precomputed Table 2 row of one platform.
func (sn *Snapshot) CountsFor(p platform.Platform) Counts { return sn.counts[p] }
