package store

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
)

// Columnar (struct-of-arrays) layout for the group family and its daily
// observation series — the last two heap-resident record shapes after the
// tweet/message/user migration (columnar.go, users.go). A pointer-era
// GroupRecord cost 256 bytes plus a per-group []Observation whose elements
// weighed ~150 bytes each with their own string allocations; at a 38-day
// horizon observations outnumber groups ~38:1, so they dominate retained
// heap. Here the family keeps one set of group columns and one
// append-only set of observation columns: strings interned to uint32
// handles through the family's ids.Table, times as int64 UnixNano with
// the zero sentinel, bools packed into one flag byte.
//
// Observation addressing: probes arrive interleaved across groups (the
// daily sweep visits every group once per day), so a group's
// observations are not naturally contiguous. Appends therefore chain rows
// through a next column (each link set once, from the previous tail), and
// Snapshot compacts scattered chains into group-major order — after
// which each group's series is one dense (first, count) range and random
// access is O(1). Chain indexes are stored +1 so zero means "none",
// keeping the zero value of a fresh column row meaningful.
const (
	gfSeenTwitter = uint8(1 << iota)
	gfSeenSocial
	gfJoined
	gfHiddenMembers
	gfIsChannel
	gfDeferred
)

// Observation flag bits.
const (
	ofAlive = uint8(1 << iota)
	ofIsChannel
)

// obsCols holds the family's observations, one slice per Observation
// field plus the intra-group chain. ~45 bytes/row against ~150 for the
// former []Observation elements. Like the tweet/message families
// (columnar.go), rows [0, frozen) live in sealed mmap-backed segments and
// the heap slices hold the hot tail, indexed by i-frozen; row numbering is
// global and chain links keep working across a seal because links are
// row+1 regardless of which tier the row lives in.
type obsCols struct {
	segs   []obsSeg
	frozen int

	at        []int64
	createdAt []int64
	title     []uint32
	phoneH    []uint32
	country   []uint32
	creator   []uint32
	members   []int32
	online    []int32
	flags     []uint8
	next      []uint32 // row+1 of the group's next observation; 0 = end
}

func (c *obsCols) total() int { return c.frozen + len(c.at) }

func (c *obsCols) seg(i int) (*obsSeg, int) {
	k := segLocate(len(c.segs), func(k int) int { return c.segs[k].start + c.segs[k].n }, i)
	s := &c.segs[k]
	return s, i - s.start
}

func (c *obsCols) nextAt(i int) uint32 {
	if i >= c.frozen {
		return c.next[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.next[j]
}

// setNext welds row i's chain link. Frozen rows write their private
// (copy-on-write) mapping: a chain whose tail was sealed keeps growing
// into the heap without touching the file.
func (c *obsCols) setNext(i int, v uint32) {
	if i >= c.frozen {
		c.next[i-c.frozen] = v
		return
	}
	s, j := c.seg(i)
	s.next[j] = v
}

func (c *obsCols) atNano(i int) int64 {
	if i >= c.frozen {
		return c.at[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.at[j]
}

func (c *obsCols) createdNanoAt(i int) int64 {
	if i >= c.frozen {
		return c.createdAt[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.createdAt[j]
}

func (c *obsCols) titleAt(i int) uint32 {
	if i >= c.frozen {
		return c.title[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.title[j]
}

func (c *obsCols) creatorAt(i int) uint32 {
	if i >= c.frozen {
		return c.creator[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.creator[j]
}

func (c *obsCols) countryAt(i int) uint32 {
	if i >= c.frozen {
		return c.country[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.country[j]
}

func (c *obsCols) flagsAt(i int) uint8 {
	if i >= c.frozen {
		return c.flags[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.flags[j]
}

func (c *obsCols) heapBytes() int64 {
	return sliceBytes(c.at) + sliceBytes(c.createdAt) + sliceBytes(c.title) +
		sliceBytes(c.phoneH) + sliceBytes(c.country) + sliceBytes(c.creator) +
		sliceBytes(c.members) + sliceBytes(c.online) + sliceBytes(c.flags) +
		sliceBytes(c.next)
}

func (c *obsCols) append(o *Observation, tab *ids.Table) {
	c.at = append(c.at, timeToNano(o.At))
	c.createdAt = append(c.createdAt, timeToNano(o.CreatedAt))
	c.title = append(c.title, tab.Handle(o.Title))
	c.phoneH = append(c.phoneH, tab.Handle(o.CreatorPhoneH))
	c.country = append(c.country, tab.Handle(o.CreatorCountry))
	c.creator = append(c.creator, tab.Handle(o.CreatorKey))
	c.members = append(c.members, int32(o.Members))
	c.online = append(c.online, int32(o.Online))
	var f uint8
	if o.Alive {
		f |= ofAlive
	}
	if o.IsChannel {
		f |= ofIsChannel
	}
	c.flags = append(c.flags, f)
	c.next = append(c.next, 0)
}

func (c *obsCols) recordAt(i uint32, tab *ids.Table) Observation {
	if int(i) >= c.frozen {
		j := int(i) - c.frozen
		f := c.flags[j]
		return Observation{
			At:             nanoToTime(c.at[j]),
			Alive:          f&ofAlive != 0,
			Title:          tab.Lookup(c.title[j]),
			Members:        int(c.members[j]),
			Online:         int(c.online[j]),
			IsChannel:      f&ofIsChannel != 0,
			CreatorPhoneH:  tab.Lookup(c.phoneH[j]),
			CreatorCountry: tab.Lookup(c.country[j]),
			CreatorKey:     tab.Lookup(c.creator[j]),
			CreatedAt:      nanoToTime(c.createdAt[j]),
		}
	}
	s, j := c.seg(int(i))
	f := s.flags[j]
	return Observation{
		At:             nanoToTime(s.at[j]),
		Alive:          f&ofAlive != 0,
		Title:          tab.Lookup(s.title[j]),
		Members:        int(s.members[j]),
		Online:         int(s.online[j]),
		IsChannel:      f&ofIsChannel != 0,
		CreatorPhoneH:  tab.Lookup(s.phoneH[j]),
		CreatorCountry: tab.Lookup(s.country[j]),
		CreatorKey:     tab.Lookup(s.creator[j]),
		CreatedAt:      nanoToTime(s.createdAt[j]),
	}
}

// view returns length-trimmed header copies, safe to read after the
// family lock is released: rows [0, n) are fully written before n is
// observed under the lock, and compaction swaps in fresh slices rather
// than mutating the ones a view references. The one exception is the
// next column — a later append sets the link on what was the tail row —
// so chain walks from a view must treat links past n as end-of-chain.
func (c *obsCols) view() obsCols {
	n := len(c.at)
	return obsCols{
		segs: slices.Clone(c.segs), frozen: c.frozen,
		at: c.at[:n], createdAt: c.createdAt[:n],
		title: c.title[:n], phoneH: c.phoneH[:n],
		country: c.country[:n], creator: c.creator[:n],
		members: c.members[:n], online: c.online[:n],
		flags: c.flags[:n], next: c.next[:n],
	}
}

// groupTable is the group family and its observations in columnar form,
// behind one mutex that guards every field, the sorted cache included.
// All handles resolve through tab (handle 0 is ""); titles, creator keys,
// countries, and phone hashes repeat heavily across a group's daily
// series, so interning them collapses the series' string weight to one
// copy per distinct value.
type groupTable struct {
	mu sync.Mutex
	m  map[groupKey]uint32 // key -> row

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

	// Observation chain anchors, row+1 encoded (0 = no observations).
	obsHead  []uint32
	obsTail  []uint32
	obsCount []uint32

	obs obsCols
	// obsScattered is set when an append lands away from its group's
	// previous tail (an interleaving sweep); Snapshot then compacts the
	// observation columns into group-major order.
	obsScattered bool

	tab *ids.Table

	// sorted holds the rows in (platform, code) order, and byPlat
	// partitions it into contiguous subslices, one per platform; dirty
	// says a row was added since they were built.
	dirty  bool
	sorted []uint32
	byPlat map[platform.Platform][]uint32
}

func newGroupTable() *groupTable {
	gt := &groupTable{m: map[groupKey]uint32{}, tab: ids.NewTable()}
	gt.tab.Handle("") // handle 0 is the empty string
	return gt
}

func (gt *groupTable) len() int { return len(gt.plat) }

// appendLocked claims the next row with zero-valued columns for (p, code).
// Caller holds gt.mu and fills first/last-seen afterwards.
func (gt *groupTable) appendLocked(p platform.Platform, code string) uint32 {
	row := uint32(gt.len())
	gt.plat = append(gt.plat, uint8(p))
	gt.flags = append(gt.flags, 0)
	gt.code = append(gt.code, gt.tab.Handle(code))
	gt.canonical = append(gt.canonical, 0)
	gt.creatorKey = append(gt.creatorKey, 0)
	gt.deferReason = append(gt.deferReason, 0)
	gt.firstSeen = append(gt.firstSeen, zeroTimeNano)
	gt.lastSeen = append(gt.lastSeen, zeroTimeNano)
	gt.joinedAt = append(gt.joinedAt, zeroTimeNano)
	gt.createdAt = append(gt.createdAt, zeroTimeNano)
	gt.tweets = append(gt.tweets, 0)
	gt.socialPosts = append(gt.socialPosts, 0)
	gt.members = append(gt.members, 0)
	gt.channels = append(gt.channels, 0)
	gt.obsHead = append(gt.obsHead, 0)
	gt.obsTail = append(gt.obsTail, 0)
	gt.obsCount = append(gt.obsCount, 0)
	return row
}

// appendObsLocked links one observation onto row's chain. Caller holds
// gt.mu.
func (gt *groupTable) appendObsLocked(row uint32, o *Observation) {
	n := uint32(gt.obs.total())
	gt.obs.append(o, gt.tab)
	if gt.obsHead[row] == 0 {
		gt.obsHead[row] = n + 1
	} else {
		if gt.obsTail[row] != n {
			gt.obsScattered = true
		}
		gt.obs.setNext(int(gt.obsTail[row]-1), n+1)
	}
	gt.obsTail[row] = n + 1
	gt.obsCount[row]++
}

// scalarsLocked materializes row's GroupRecord without its observation
// series (Observations stays nil); the series lives in the obs columns
// and is read through ObsList. Caller holds gt.mu (or a view does the
// equivalent through groupView.at).
func (gt *groupTable) scalarsLocked(row uint32) GroupRecord {
	f := gt.flags[row]
	return GroupRecord{
		Platform:      platform.Platform(gt.plat[row]),
		Code:          gt.tab.Lookup(gt.code[row]),
		Canonical:     gt.tab.Lookup(gt.canonical[row]),
		FirstSeen:     nanoToTime(gt.firstSeen[row]),
		LastSeen:      nanoToTime(gt.lastSeen[row]),
		Tweets:        int(gt.tweets[row]),
		SeenTwitter:   f&gfSeenTwitter != 0,
		SeenSocial:    f&gfSeenSocial != 0,
		SocialPosts:   int(gt.socialPosts[row]),
		Joined:        f&gfJoined != 0,
		JoinedAt:      nanoToTime(gt.joinedAt[row]),
		CreatedAt:     nanoToTime(gt.createdAt[row]),
		HiddenMembers: f&gfHiddenMembers != 0,
		IsChannel:     f&gfIsChannel != 0,
		Channels:      int(gt.channels[row]),
		MemberCount:   int(gt.members[row]),
		CreatorKey:    gt.tab.Lookup(gt.creatorKey[row]),
		Deferred:      f&gfDeferred != 0,
		DeferReason:   gt.tab.Lookup(gt.deferReason[row]),
	}
}

// storeScalarsLocked writes g's scalar fields back into row's columns.
// Platform and Code are identity (the map key) and are not rewritten;
// Observations are not touched — mutation closures only ever set scalars,
// and the observation path goes through appendObsLocked. Caller holds
// gt.mu.
func (gt *groupTable) storeScalarsLocked(row uint32, g *GroupRecord) {
	var f uint8
	if g.SeenTwitter {
		f |= gfSeenTwitter
	}
	if g.SeenSocial {
		f |= gfSeenSocial
	}
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
	gt.flags[row] = f
	gt.canonical[row] = gt.tab.Handle(g.Canonical)
	gt.creatorKey[row] = gt.tab.Handle(g.CreatorKey)
	gt.deferReason[row] = gt.tab.Handle(g.DeferReason)
	gt.firstSeen[row] = timeToNano(g.FirstSeen)
	gt.lastSeen[row] = timeToNano(g.LastSeen)
	gt.joinedAt[row] = timeToNano(g.JoinedAt)
	gt.createdAt[row] = timeToNano(g.CreatedAt)
	gt.tweets[row] = int32(g.Tweets)
	gt.socialPosts[row] = int32(g.SocialPosts)
	gt.members[row] = int32(g.MemberCount)
	gt.channels[row] = int32(g.Channels)
}

// scalarHeapBytes is the group scalar-column footprint — part of
// the resident floor SpillStats reports (every sweep touches every group,
// so these never spill). Caller holds gt.mu.
func (gt *groupTable) scalarHeapBytes() int64 {
	return sliceBytes(gt.plat) + sliceBytes(gt.flags) + sliceBytes(gt.code) +
		sliceBytes(gt.canonical) + sliceBytes(gt.creatorKey) + sliceBytes(gt.deferReason) +
		sliceBytes(gt.firstSeen) + sliceBytes(gt.lastSeen) + sliceBytes(gt.joinedAt) +
		sliceBytes(gt.createdAt) + sliceBytes(gt.tweets) + sliceBytes(gt.socialPosts) +
		sliceBytes(gt.members) + sliceBytes(gt.channels) +
		sliceBytes(gt.obsHead) + sliceBytes(gt.obsTail) + sliceBytes(gt.obsCount)
}

// compactLocked rewrites the observation columns into group-major
// order, making every group's series one dense (first, count) range, and
// drops rows orphaned by put-replacement. Fresh slices are allocated so
// views taken earlier keep reading their own consistent arrays. Caller
// holds gt.mu.
func (gt *groupTable) compactLocked() {
	if !gt.obsScattered {
		return
	}
	// Sealed rows cannot be renumbered: chain links from other frozen rows
	// point at them by global row, dedup-free anchors (obsHead/obsTail)
	// span both tiers, and the segment file is immutable. A spilled family
	// therefore keeps its scattered chains and ObsList serves them by walk
	// — the random-access upgrade is a heap-only luxury.
	if len(gt.obs.segs) > 0 {
		return
	}
	old := gt.obs
	n := len(old.at)
	fresh := obsCols{
		at:        make([]int64, 0, n),
		createdAt: make([]int64, 0, n),
		title:     make([]uint32, 0, n),
		phoneH:    make([]uint32, 0, n),
		country:   make([]uint32, 0, n),
		creator:   make([]uint32, 0, n),
		members:   make([]int32, 0, n),
		online:    make([]int32, 0, n),
		flags:     make([]uint8, 0, n),
		next:      make([]uint32, 0, n),
	}
	for row := range gt.obsHead {
		if gt.obsHead[row] == 0 {
			continue
		}
		newHead := uint32(len(fresh.at)) + 1
		for i := gt.obsHead[row]; i != 0; i = old.next[i-1] {
			j := i - 1
			fresh.at = append(fresh.at, old.at[j])
			fresh.createdAt = append(fresh.createdAt, old.createdAt[j])
			fresh.title = append(fresh.title, old.title[j])
			fresh.phoneH = append(fresh.phoneH, old.phoneH[j])
			fresh.country = append(fresh.country, old.country[j])
			fresh.creator = append(fresh.creator, old.creator[j])
			fresh.members = append(fresh.members, old.members[j])
			fresh.online = append(fresh.online, old.online[j])
			fresh.flags = append(fresh.flags, old.flags[j])
			fresh.next = append(fresh.next, uint32(len(fresh.next))+2)
		}
		fresh.next[len(fresh.next)-1] = 0
		gt.obsHead[row] = newHead
		gt.obsTail[row] = uint32(len(fresh.at))
	}
	gt.obs = fresh
	gt.obsScattered = false
}

// upsertLocked returns the row for (p, code), creating it on first sight
// and widening its first/last-seen window. Caller holds gt.mu.
func (gt *groupTable) upsertLocked(p platform.Platform, code string, at time.Time) (row uint32, isNew bool) {
	k := groupKey{p, code}
	n := timeToNano(at)
	row, ok := gt.m[k]
	if !ok {
		row = gt.appendLocked(p, code)
		gt.m[k] = row
		gt.firstSeen[row], gt.lastSeen[row] = n, n
		gt.dirty = true
		return row, true
	}
	// The sentinel is MinInt64, so these compare exactly like
	// at.Before(FirstSeen) / at.After(LastSeen) did, zero times included.
	if n < gt.firstSeen[row] {
		gt.firstSeen[row] = n
	}
	if n > gt.lastSeen[row] {
		gt.lastSeen[row] = n
	}
	return row, isNew
}

// lookup returns the full record for a key, including its materialized
// observation series.
func (gt *groupTable) lookup(p platform.Platform, code string) (GroupRecord, bool) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	row, ok := gt.m[groupKey{p, code}]
	if !ok {
		return GroupRecord{}, false
	}
	g := gt.scalarsLocked(row)
	if c := gt.obsCount[row]; c > 0 {
		g.Observations = make([]Observation, 0, c)
		for i := gt.obsHead[row]; i != 0; i = gt.obs.nextAt(int(i - 1)) {
			g.Observations = append(g.Observations, gt.obs.recordAt(i-1, gt.tab))
		}
	}
	return g, true
}

// with materializes the scalar record for a key, runs fn on it under
// gt.mu, and writes the scalars back; unknown keys are a no-op. The
// record handed to fn carries no Observations — series access and append
// go through ObsList and appendObsLocked.
func (gt *groupTable) with(p platform.Platform, code string, fn func(*GroupRecord)) {
	gt.mu.Lock()
	if row, ok := gt.m[groupKey{p, code}]; ok {
		g := gt.scalarsLocked(row)
		fn(&g)
		gt.storeScalarsLocked(row, &g)
	}
	gt.mu.Unlock()
}

// put replaces (or creates) the record for g's key with *g, including its
// observation series — the Load path installing authoritative saved
// records over tweet-built skeletons. Observations a previous put chained
// for the same key are orphaned and reclaimed by the next compaction.
func (gt *groupTable) put(g *GroupRecord) {
	gt.mu.Lock()
	k := groupKey{g.Platform, g.Code}
	row, ok := gt.m[k]
	if !ok {
		row = gt.appendLocked(g.Platform, g.Code)
		gt.m[k] = row
		gt.dirty = true
	}
	gt.storeScalarsLocked(row, g)
	if gt.obsCount[row] > 0 {
		gt.obsScattered = true // old chain rows become garbage
	}
	gt.obsHead[row], gt.obsTail[row], gt.obsCount[row] = 0, 0, 0
	for i := range g.Observations {
		gt.appendObsLocked(row, &g.Observations[i])
	}
	gt.mu.Unlock()
}

// rebuildLocked refreshes the sorted row cache and its per-platform
// partitions. Caller holds gt.mu.
func (gt *groupTable) rebuildLocked() {
	if !gt.dirty && gt.sorted != nil {
		return
	}
	gt.dirty = false
	// As for users (rebuildLocked in users.go), sort contiguous entries
	// rather than rows compared through the columns.
	type entry struct {
		code string
		row  uint32
		p    uint8
	}
	all := make([]entry, len(gt.plat))
	for row, p := range gt.plat {
		all[row] = entry{gt.tab.Lookup(gt.code[row]), uint32(row), p}
	}
	slices.SortFunc(all, func(a, b entry) int {
		if c := cmp.Compare(a.p, b.p); c != 0 {
			return c
		}
		return strings.Compare(a.code, b.code)
	})
	sorted := make([]uint32, len(all))
	for i, e := range all {
		sorted[i] = e.row
	}
	byPlat := map[platform.Platform][]uint32{}
	for lo := 0; lo < len(all); {
		hi := lo
		for hi < len(all) && all[hi].p == all[lo].p {
			hi++
		}
		byPlat[platform.Platform(all[lo].p)] = sorted[lo:hi:hi]
		lo = hi
	}
	gt.sorted = sorted
	gt.byPlat = byPlat
}

// countFor tallies one platform's Table 2 group counters.
func (gt *groupTable) countFor(p platform.Platform) (urls, joined int) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	for row, pl := range gt.plat {
		if pl != uint8(p) {
			continue
		}
		urls++
		if gt.flags[row]&gfJoined != 0 {
			joined++
		}
	}
	return urls, joined
}
