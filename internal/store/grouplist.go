package store

import (
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
)

// groupView is a header-copied snapshot of the group and observation
// columns, taken under the family lock and safe to read after it is
// released: rows the view covers were fully written before the view
// was taken, appends never move them, and compaction swaps in fresh
// slices. Like the former pointer layout, reading a row concurrently with
// a mutation of that same row is undefined — the pipeline only reads at
// phase boundaries, after the writers of the previous phase quiesced.
type groupView struct {
	plat        []uint8
	flags       []uint8
	code        []uint32
	canonical   []uint32
	creatorKey  []uint32
	deferReason []uint32
	firstSeen   []int64
	lastSeen    []int64
	joinedAt    []int64
	createdAt   []int64
	tweets      []int32
	socialPosts []int32
	members     []int32
	channels    []int32
	obsHead     []uint32
	obsTail     []uint32
	obsCount    []uint32
	obs         obsCols
	tab         *ids.Table
}

// viewLocked captures the column headers. Caller holds gt.mu.
func (gt *groupTable) viewLocked() *groupView {
	n := gt.len()
	return &groupView{
		plat: gt.plat[:n], flags: gt.flags[:n],
		code: gt.code[:n], canonical: gt.canonical[:n],
		creatorKey: gt.creatorKey[:n], deferReason: gt.deferReason[:n],
		firstSeen: gt.firstSeen[:n], lastSeen: gt.lastSeen[:n],
		joinedAt: gt.joinedAt[:n], createdAt: gt.createdAt[:n],
		tweets: gt.tweets[:n], socialPosts: gt.socialPosts[:n],
		members: gt.members[:n], channels: gt.channels[:n],
		obsHead: gt.obsHead[:n], obsTail: gt.obsTail[:n], obsCount: gt.obsCount[:n],
		obs: gt.obs.view(), tab: gt.tab,
	}
}

// at materializes row's scalar record (Observations nil), allocation-free:
// strings are interned lookups, times rebuilt from unixNano.
func (v *groupView) at(row uint32) GroupRecord {
	f := v.flags[row]
	return GroupRecord{
		Platform:      platform.Platform(v.plat[row]),
		Code:          v.tab.Lookup(v.code[row]),
		Canonical:     v.tab.Lookup(v.canonical[row]),
		FirstSeen:     nanoToTime(v.firstSeen[row]),
		LastSeen:      nanoToTime(v.lastSeen[row]),
		Tweets:        int(v.tweets[row]),
		SeenTwitter:   f&gfSeenTwitter != 0,
		SeenSocial:    f&gfSeenSocial != 0,
		SocialPosts:   int(v.socialPosts[row]),
		Joined:        f&gfJoined != 0,
		JoinedAt:      nanoToTime(v.joinedAt[row]),
		CreatedAt:     nanoToTime(v.createdAt[row]),
		HiddenMembers: f&gfHiddenMembers != 0,
		IsChannel:     f&gfIsChannel != 0,
		Channels:      int(v.channels[row]),
		MemberCount:   int(v.members[row]),
		CreatorKey:    v.tab.Lookup(v.creatorKey[row]),
		Deferred:      f&gfDeferred != 0,
		DeferReason:   v.tab.Lookup(v.deferReason[row]),
	}
}

// GroupList is a read-only view of groups: the whole family or a
// row-selected subset (one platform, the joined sample), in (platform,
// code) order. Snapshot shares one column view across every list it
// hands out. At materializes a GroupRecord's scalar fields without
// allocating; the observation series is addressed separately through
// Obs, and Record joins the two for callers that need the full wire
// record (Save, Group).
type GroupList struct {
	v    *groupView
	rows []uint32
}

// Len reports the number of groups in the view.
func (l GroupList) Len() int { return len(l.rows) }

// At returns the i'th group's scalar record. Observations is nil — use
// Obs(i) for the daily series or Record(i) for the full wire record. The
// record's strings alias store-owned memory: share them freely, but
// treat them as immutable.
func (l GroupList) At(i int) GroupRecord {
	return l.v.at(l.rows[i])
}

// Key returns the i'th group's platform and code, reading only those two
// columns. Unlike the rest of a row they are written once, when the row is
// created, and never change, so Key is safe while the store is still
// ingesting — At is not, since concurrent upserts rewrite a row's flags
// and first/last-seen times.
func (l GroupList) Key(i int) (platform.Platform, string) {
	row := l.rows[i]
	return platform.Platform(l.v.plat[row]), l.v.tab.Lookup(l.v.code[row])
}

// Obs returns the i'th group's observation series.
func (l GroupList) Obs(i int) ObsList {
	row := l.rows[i]
	return ObsList{
		v:    l.v,
		head: l.v.obsHead[row],
		tail: l.v.obsTail[row],
		n:    l.v.obsCount[row],
	}
}

// Record returns the i'th group's full record with its observation series
// materialized — the JSONL wire form. The slice is freshly allocated and
// caller-owned.
func (l GroupList) Record(i int) GroupRecord {
	g := l.At(i)
	if obs := l.Obs(i); obs.Len() > 0 {
		s := make([]Observation, 0, obs.Len())
		obs.Each(func(o Observation) bool {
			s = append(s, o)
			return true
		})
		g.Observations = s
	}
	return g
}

// Where returns the sub-view of groups satisfying keep, preserving order.
func (l GroupList) Where(keep func(GroupRecord) bool) GroupList {
	var rows []uint32
	for i, row := range l.rows {
		if keep(l.At(i)) {
			rows = append(rows, row)
		}
	}
	return GroupList{v: l.v, rows: rows}
}

// ObsList is a read-only view of one group's daily observation series, in
// probe order. After Snapshot's compaction the series is one dense column
// range and At is O(1); before it, rows are chained and At(i) walks i
// links — sequential consumers should use Each, which is O(n) either way.
type ObsList struct {
	v    *groupView
	head uint32 // row+1; 0 = empty
	tail uint32
	n    uint32
}

// Len reports the number of observations.
func (l ObsList) Len() int { return int(l.n) }

// contiguous reports whether the series occupies the dense range
// [head-1, tail-1]: n distinct chained rows with tail-head+1 == n can
// leave no room for another group's rows in between.
func (l ObsList) contiguous() bool {
	return l.head != 0 && l.tail-l.head+1 == l.n
}

// At returns the i'th observation of the series.
func (l ObsList) At(i int) Observation {
	if l.contiguous() {
		return l.v.obs.recordAt(l.head-1+uint32(i), l.v.tab)
	}
	j := l.head
	for ; i > 0; i-- {
		j = l.nextOf(j)
	}
	return l.v.obs.recordAt(j-1, l.v.tab)
}

// nextOf follows one chain link, treating links past the view's horizon
// as end-of-chain (an append after the view was taken).
func (l ObsList) nextOf(j uint32) uint32 {
	n := l.v.obs.nextAt(int(j - 1))
	if int(n) > l.v.obs.total() {
		return 0
	}
	return n
}

// Each calls fn for every observation in probe order until fn returns
// false. Reconstruction is allocation-free.
func (l ObsList) Each(fn func(Observation) bool) {
	if l.n == 0 {
		return
	}
	if l.contiguous() {
		for i := l.head - 1; i < l.tail; i++ {
			if !fn(l.v.obs.recordAt(i, l.v.tab)) {
				return
			}
		}
		return
	}
	for j := l.head; j != 0; j = l.nextOf(j) {
		if !fn(l.v.obs.recordAt(j-1, l.v.tab)) {
			return
		}
	}
}

// Last returns the most recent observation (ok=false on an empty series)
// in O(1) via the chain tail.
func (l ObsList) Last() (Observation, bool) {
	if l.n == 0 {
		return Observation{}, false
	}
	return l.v.obs.recordAt(l.tail-1, l.v.tab), true
}

// The paper's analyses read a handful of "first/last matching" facts off
// each series; they used to be re-implemented as ad-hoc walks in
// report/figures.go, report/creators.go, report/aggregate.go, and the
// joiner. The helpers below are that logic's single home, each walking
// only the column it needs.

// FirstCreatedAt returns the first observation-reported creation date
// (Discord snowflakes), or the zero time.
func (l ObsList) FirstCreatedAt() time.Time {
	out := time.Time{}
	l.eachRow(func(j uint32) bool {
		if n := l.v.obs.createdNanoAt(int(j)); n != zeroTimeNano {
			out = nanoToTime(n)
			return false
		}
		return true
	})
	return out
}

// FirstCreatorKey returns the first observed creator key ("" if the
// platform never exposed one).
func (l ObsList) FirstCreatorKey() string {
	out := ""
	l.eachRow(func(j uint32) bool {
		if h := l.v.obs.creatorAt(int(j)); h != 0 {
			out = l.v.tab.Lookup(h)
			return false
		}
		return true
	})
	return out
}

// FirstCreatorCountry returns the first observed creator country ("" if
// never exposed).
func (l ObsList) FirstCreatorCountry() string {
	out := ""
	l.eachRow(func(j uint32) bool {
		if h := l.v.obs.countryAt(int(j)); h != 0 {
			out = l.v.tab.Lookup(h)
			return false
		}
		return true
	})
	return out
}

// LastTitle returns the most recently observed non-empty title ("" if the
// group never showed one).
func (l ObsList) LastTitle() string {
	h := uint32(0)
	l.eachRow(func(j uint32) bool {
		if t := l.v.obs.titleAt(int(j)); t != 0 {
			h = t
		}
		return true
	})
	return l.v.tab.Lookup(h)
}

// eachRow drives the walk helpers: fn sees raw row indexes in probe order
// and returns false to stop.
func (l ObsList) eachRow(fn func(row uint32) bool) {
	if l.n == 0 {
		return
	}
	if l.contiguous() {
		for i := l.head - 1; i < l.tail; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	for j := l.head; j != 0; j = l.nextOf(j) {
		if !fn(j - 1) {
			return
		}
	}
}

// groups returns the all-groups view, sorted by platform then code.
func (gt *groupTable) groups() GroupList {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	gt.rebuildLocked()
	return GroupList{v: gt.viewLocked(), rows: gt.sorted}
}

// groupsOf returns one platform's view, sorted by code.
func (gt *groupTable) groupsOf(p platform.Platform) GroupList {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	gt.rebuildLocked()
	return GroupList{v: gt.viewLocked(), rows: gt.byPlat[p]}
}
