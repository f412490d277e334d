package store

import (
	"slices"
	"time"
	"unsafe"

	"msgscope/internal/ids"
	"msgscope/internal/platform"
)

// Columnar (struct-of-arrays) layouts for the hot record families. The
// paper-scale corpus is ~2.2M tweets and ~8.3M messages; storing each as a
// separate heap struct with its own string allocations costs ~473 B/tweet
// and ~97 B/message (BenchmarkStoreIngest against the former layout). The
// columns below keep the same information in parallel slices — numeric
// fields packed to their natural width, string fields interned to uint32
// handles through ids.Table, tweet text appended to a byte arena — and
// reconstruct TweetRecord/ControlRecord/MessageRecord values on demand.
// Reconstruction allocates nothing: interned strings are shared, text is
// an unsafe.String view into the arena, and times are rebuilt from
// unixNano.
//
// Spilling (DESIGN.md §16): each family is a chain of immutable mmap-backed
// segments holding rows [0, frozen) plus the in-heap columns holding the
// hot tail [frozen, len()). Row numbering is global and stable — sealing
// moves rows out of the heap without renumbering them, so dedup indexes,
// checkpoint marks, and index-selected views stay valid across a seal.
// Accessors branch on frozen; hot-path loops that touch only the heap tail
// (append, capture from a mark past frozen) never pay the branch's cold
// side.
//
// Time encoding: CreatedAt/SentAt are stored as int64 unixNano and
// restored with time.Unix(0, n).UTC(). Every timestamp the study produces
// is UTC (simclock), so the round trip is byte-identical through
// RFC 3339; non-UTC zones would be normalized, and instants outside the
// unixNano range (years 1678–2262) are unrepresentable. The zero
// time.Time is kept as a sentinel.

const zeroTimeNano = int64(-1 << 63)

func timeToNano(t time.Time) int64 {
	if t.IsZero() {
		return zeroTimeNano
	}
	return t.UnixNano()
}

func nanoToTime(n int64) time.Time {
	if n == zeroTimeNano {
		return time.Time{}
	}
	return time.Unix(0, n).UTC()
}

// sliceBytes is the retained-heap cost of one column (capacity, not
// length: append slack is real memory).
func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(cap(s)) * int64(unsafe.Sizeof(z))
}

// textArena stores variable-length strings in fixed-size chunks (1 MiB),
// addressed by record index through packed (chunk, offset) positions plus
// a length column. Chunks are allocated at full capacity up front and
// never reallocated, so unsafe.String views into them stay valid for the
// life of the store and the arena carries no append-growth slack. A string
// larger than a chunk gets a dedicated exact-size chunk. Positions are
// 64-bit — chunk<<20 | offset — so capacity scales with the corpus
// instead of aborting at the former 4 GiB directory limit; a family whose
// text outgrows its budget spills to segments rather than panicking.
//
// Families whose texts are all empty (messages, unless the toxicity
// extension collects bodies) pay nothing: the position and length columns
// stay nil until the first non-empty string, and at() treats missing rows
// as "".
const (
	textChunkShift = 20
	textChunkSize  = 1 << textChunkShift
)

type textArena struct {
	chunks [][]byte
	pos    []uint64 // chunk<<textChunkShift | offset
	ln     []uint32
}

// append stores row's text. Rows must be appended in order; empty leading
// rows are backfilled when the first non-empty text arrives.
func (a *textArena) append(row int, s string) {
	if len(s) == 0 {
		if a.ln == nil {
			return
		}
		a.pos = append(a.pos, 0)
		a.ln = append(a.ln, 0)
		return
	}
	if a.ln == nil && row > 0 {
		a.pos = make([]uint64, row)
		a.ln = make([]uint32, row)
	}
	ci := len(a.chunks) - 1
	if ci < 0 || len(a.chunks[ci])+len(s) > cap(a.chunks[ci]) {
		size := textChunkSize
		if len(s) > size {
			size = len(s)
		}
		a.chunks = append(a.chunks, make([]byte, 0, size))
		ci = len(a.chunks) - 1
	}
	off := len(a.chunks[ci])
	a.chunks[ci] = append(a.chunks[ci], s...)
	a.pos = append(a.pos, uint64(ci)<<textChunkShift|uint64(off))
	a.ln = append(a.ln, uint32(len(s)))
}

func (a *textArena) at(i int) string {
	if i >= len(a.ln) {
		return ""
	}
	n := a.ln[i]
	if n == 0 {
		return ""
	}
	p := a.pos[i]
	return unsafe.String(&a.chunks[p>>textChunkShift][p&(textChunkSize-1)], int(n))
}

func (a *textArena) heapBytes() int64 {
	b := sliceBytes(a.pos) + sliceBytes(a.ln)
	for _, ch := range a.chunks {
		b += int64(cap(ch))
	}
	return b
}

// view returns a length-trimmed copy of the arena's headers, immune to
// later appends. The chunk directory is cloned (appends may reallocate
// it); the chunk payloads are shared — rows the view covers were fully
// written before the view was taken and are never rewritten.
func (a *textArena) view(n int) textArena {
	k := min(n, len(a.ln))
	if k == 0 {
		return textArena{}
	}
	return textArena{chunks: slices.Clone(a.chunks), pos: a.pos[:k], ln: a.ln[:k]}
}

// Tweet flag bits: the low two bits mirror TweetSource, the top bit marks
// retweets.
const (
	flagSourceMask = uint8(SourceSearch | SourceStream)
	flagRetweet    = uint8(0x80)
)

// segLocate finds the segment covering global row i in a slice ordered by
// start. Callers guarantee i < frozen, so the search always lands.
func segLocate(n int, end func(k int) int, i int) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if i >= end(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// tweetCols is the tweet family: mmap-backed segments for rows
// [0, frozen), heap columns for the hot tail. userTab/langTab are shared
// with the control family (both write under tweetMu); groupTab is the
// tweet family's own. Heap slices are indexed by i-frozen.
type tweetCols struct {
	segs   []tweetSeg
	frozen int

	ids      []uint64
	user     []uint32
	created  []int64
	lang     []uint32
	hashtags []int32
	mentions []int32
	flags    []uint8
	plat     []uint8
	group    []uint32
	text     textArena

	userTab, langTab, groupTab *ids.Table
}

func newTweetCols(userTab, langTab *ids.Table) tweetCols {
	return tweetCols{userTab: userTab, langTab: langTab, groupTab: ids.NewTable()}
}

func (c *tweetCols) len() int { return c.frozen + len(c.ids) }

func (c *tweetCols) seg(i int) (*tweetSeg, int) {
	k := segLocate(len(c.segs), func(k int) int { return c.segs[k].start + c.segs[k].n }, i)
	s := &c.segs[k]
	return s, i - s.start
}

func (c *tweetCols) append(t *TweetRecord) {
	c.ids = append(c.ids, t.ID)
	c.user = append(c.user, c.userTab.Handle(t.UserID))
	c.created = append(c.created, timeToNano(t.CreatedAt))
	c.lang = append(c.lang, c.langTab.Handle(t.Lang))
	c.hashtags = append(c.hashtags, int32(t.Hashtags))
	c.mentions = append(c.mentions, int32(t.Mentions))
	f := uint8(t.Source) & flagSourceMask
	if t.Retweet {
		f |= flagRetweet
	}
	c.flags = append(c.flags, f)
	c.plat = append(c.plat, uint8(t.Platform))
	c.group = append(c.group, c.groupTab.Handle(t.GroupCode))
	c.text.append(len(c.ids)-1, t.Text)
}

func (c *tweetCols) at(i int) TweetRecord {
	if i >= c.frozen {
		j := i - c.frozen
		f := c.flags[j]
		return TweetRecord{
			ID:        c.ids[j],
			UserID:    c.userTab.Lookup(c.user[j]),
			CreatedAt: nanoToTime(c.created[j]),
			Lang:      c.langTab.Lookup(c.lang[j]),
			Hashtags:  int(c.hashtags[j]),
			Mentions:  int(c.mentions[j]),
			Retweet:   f&flagRetweet != 0,
			Text:      c.text.at(j),
			Platform:  platform.Platform(c.plat[j]),
			GroupCode: c.groupTab.Lookup(c.group[j]),
			Source:    TweetSource(f & flagSourceMask),
		}
	}
	s, j := c.seg(i)
	f := s.flags[j]
	return TweetRecord{
		ID:        s.ids[j],
		UserID:    c.userTab.Lookup(s.user[j]),
		CreatedAt: nanoToTime(s.created[j]),
		Lang:      c.langTab.Lookup(s.lang[j]),
		Hashtags:  int(s.hashtags[j]),
		Mentions:  int(s.mentions[j]),
		Retweet:   f&flagRetweet != 0,
		Text:      s.text(j),
		Platform:  platform.Platform(s.plat[j]),
		GroupCode: c.groupTab.Lookup(s.group[j]),
		Source:    TweetSource(f & flagSourceMask),
	}
}

func (c *tweetCols) platAt(i int) uint8 {
	if i >= c.frozen {
		return c.plat[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.plat[j]
}

func (c *tweetCols) createdNano(i int) int64 {
	if i >= c.frozen {
		return c.created[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.created[j]
}

// userHandle returns the live userTab handle of row i's author, the shared
// handle space distinct-user counts key on.
func (c *tweetCols) userHandle(i int) uint32 {
	if i >= c.frozen {
		return c.user[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.user[j]
}

// orFlags merges bits into row i's flags, reporting whether they changed.
// Frozen rows mutate their private (copy-on-write) mapping; the file is
// never re-read, so it needs no update.
func (c *tweetCols) orFlags(i int, bits uint8) bool {
	if i >= c.frozen {
		j := i - c.frozen
		if nf := c.flags[j] | bits; nf != c.flags[j] {
			c.flags[j] = nf
			return true
		}
		return false
	}
	s, j := c.seg(i)
	if nf := s.flags[j] | bits; nf != s.flags[j] {
		s.flags[j] = nf
		return true
	}
	return false
}

func (c *tweetCols) heapBytes() int64 {
	return sliceBytes(c.ids) + sliceBytes(c.user) + sliceBytes(c.created) +
		sliceBytes(c.lang) + sliceBytes(c.hashtags) + sliceBytes(c.mentions) +
		sliceBytes(c.flags) + sliceBytes(c.plat) + sliceBytes(c.group) +
		c.text.heapBytes()
}

// view returns a copy of the column headers trimmed to the current length,
// safe to read while writers keep appending (appends never move rows
// [0, n); the interning tables allow lock-free lookups; the segment
// directory is cloned because a seal appends to it).
func (c *tweetCols) view() tweetCols {
	n := len(c.ids)
	return tweetCols{
		segs: slices.Clone(c.segs), frozen: c.frozen,
		ids: c.ids[:n], user: c.user[:n], created: c.created[:n],
		lang: c.lang[:n], hashtags: c.hashtags[:n], mentions: c.mentions[:n],
		flags: c.flags[:n], plat: c.plat[:n], group: c.group[:n],
		text:    c.text.view(n),
		userTab: c.userTab, langTab: c.langTab, groupTab: c.groupTab,
	}
}

// controlCols is the control-tweet family (features only, no text).
type controlCols struct {
	segs   []controlSeg
	frozen int

	ids      []uint64
	user     []uint32
	created  []int64
	lang     []uint32
	hashtags []int32
	mentions []int32
	flags    []uint8

	userTab, langTab *ids.Table
}

func newControlCols(userTab, langTab *ids.Table) controlCols {
	return controlCols{userTab: userTab, langTab: langTab}
}

func (c *controlCols) len() int { return c.frozen + len(c.ids) }

func (c *controlCols) seg(i int) (*controlSeg, int) {
	k := segLocate(len(c.segs), func(k int) int { return c.segs[k].start + c.segs[k].n }, i)
	s := &c.segs[k]
	return s, i - s.start
}

func (c *controlCols) append(r *ControlRecord) {
	c.ids = append(c.ids, r.ID)
	c.user = append(c.user, c.userTab.Handle(r.UserID))
	c.created = append(c.created, timeToNano(r.CreatedAt))
	c.lang = append(c.lang, c.langTab.Handle(r.Lang))
	c.hashtags = append(c.hashtags, int32(r.Hashtags))
	c.mentions = append(c.mentions, int32(r.Mentions))
	var f uint8
	if r.Retweet {
		f = flagRetweet
	}
	c.flags = append(c.flags, f)
}

func (c *controlCols) at(i int) ControlRecord {
	if i >= c.frozen {
		j := i - c.frozen
		return ControlRecord{
			ID:        c.ids[j],
			UserID:    c.userTab.Lookup(c.user[j]),
			CreatedAt: nanoToTime(c.created[j]),
			Lang:      c.langTab.Lookup(c.lang[j]),
			Hashtags:  int(c.hashtags[j]),
			Mentions:  int(c.mentions[j]),
			Retweet:   c.flags[j]&flagRetweet != 0,
		}
	}
	s, j := c.seg(i)
	return ControlRecord{
		ID:        s.ids[j],
		UserID:    c.userTab.Lookup(s.user[j]),
		CreatedAt: nanoToTime(s.created[j]),
		Lang:      c.langTab.Lookup(s.lang[j]),
		Hashtags:  int(s.hashtags[j]),
		Mentions:  int(s.mentions[j]),
		Retweet:   s.flags[j]&flagRetweet != 0,
	}
}

func (c *controlCols) heapBytes() int64 {
	return sliceBytes(c.ids) + sliceBytes(c.user) + sliceBytes(c.created) +
		sliceBytes(c.lang) + sliceBytes(c.hashtags) + sliceBytes(c.mentions) +
		sliceBytes(c.flags)
}

func (c *controlCols) view() controlCols {
	n := len(c.ids)
	return controlCols{
		segs: slices.Clone(c.segs), frozen: c.frozen,
		ids: c.ids[:n], user: c.user[:n], created: c.created[:n],
		lang: c.lang[:n], hashtags: c.hashtags[:n], mentions: c.mentions[:n],
		flags: c.flags[:n], userTab: c.userTab, langTab: c.langTab,
	}
}

// msgCols is the message family. Message bodies are usually absent (the
// paper's figures never need them), so the text arena stays empty except
// for the offset column.
type msgCols struct {
	segs   []msgSeg
	frozen int

	plat   []uint8
	group  []uint32
	author []uint64
	sent   []int64
	typ    []uint8
	text   textArena

	groupTab *ids.Table
}

func newMsgCols() msgCols {
	return msgCols{groupTab: ids.NewTable()}
}

func (c *msgCols) len() int { return c.frozen + len(c.plat) }

func (c *msgCols) seg(i int) (*msgSeg, int) {
	k := segLocate(len(c.segs), func(k int) int { return c.segs[k].start + c.segs[k].n }, i)
	s := &c.segs[k]
	return s, i - s.start
}

// grow reserves room for n more rows in the fixed-width columns. The text
// arena is left to grow on its own: most studies carry no bodies.
func (c *msgCols) grow(n int) {
	c.plat = slices.Grow(c.plat, n)
	c.group = slices.Grow(c.group, n)
	c.author = slices.Grow(c.author, n)
	c.sent = slices.Grow(c.sent, n)
	c.typ = slices.Grow(c.typ, n)
}

func (c *msgCols) append(m *MessageRecord) {
	c.plat = append(c.plat, uint8(m.Platform))
	c.group = append(c.group, c.groupTab.Handle(m.GroupCode))
	c.author = append(c.author, m.AuthorKey)
	c.sent = append(c.sent, timeToNano(m.SentAt))
	c.typ = append(c.typ, uint8(m.Type))
	c.text.append(len(c.plat)-1, m.Text)
}

func (c *msgCols) at(i int) MessageRecord {
	if i >= c.frozen {
		j := i - c.frozen
		return MessageRecord{
			Platform:  platform.Platform(c.plat[j]),
			GroupCode: c.groupTab.Lookup(c.group[j]),
			AuthorKey: c.author[j],
			SentAt:    nanoToTime(c.sent[j]),
			Type:      platform.MessageType(c.typ[j]),
			Text:      c.text.at(j),
		}
	}
	s, j := c.seg(i)
	return MessageRecord{
		Platform:  platform.Platform(s.plat[j]),
		GroupCode: c.groupTab.Lookup(s.group[j]),
		AuthorKey: s.author[j],
		SentAt:    nanoToTime(s.sent[j]),
		Type:      platform.MessageType(s.typ[j]),
		Text:      s.text(j),
	}
}

func (c *msgCols) platAt(i int) uint8 {
	if i >= c.frozen {
		return c.plat[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.plat[j]
}

func (c *msgCols) authorKey(i int) uint64 {
	if i >= c.frozen {
		return c.author[i-c.frozen]
	}
	s, j := c.seg(i)
	return s.author[j]
}

func (c *msgCols) heapBytes() int64 {
	return sliceBytes(c.plat) + sliceBytes(c.group) + sliceBytes(c.author) +
		sliceBytes(c.sent) + sliceBytes(c.typ) + c.text.heapBytes()
}

func (c *msgCols) view() msgCols {
	n := len(c.plat)
	return msgCols{
		segs: slices.Clone(c.segs), frozen: c.frozen,
		plat: c.plat[:n], group: c.group[:n], author: c.author[:n],
		sent: c.sent[:n], typ: c.typ[:n], text: c.text.view(n),
		groupTab: c.groupTab,
	}
}

// TweetList is a read-only view of tweets: either a whole family or an
// index-selected subset (one platform, one study day). At materializes a
// TweetRecord without allocating — strings are interned, arena-backed, or
// mmap-backed views — so `for i := 0; i < l.Len(); i++ { t := l.At(i) }`
// replaces the former []TweetRecord loops at the same cost.
type TweetList struct {
	c   tweetCols
	idx []uint32
	all bool // view over every row; idx unused
}

// Len reports the number of tweets in the view.
func (l TweetList) Len() int {
	if l.all {
		return l.c.len()
	}
	return len(l.idx)
}

// At returns the i'th tweet of the view. The record's strings alias
// store-owned memory: share them freely, but treat them as immutable.
func (l TweetList) At(i int) TweetRecord {
	if !l.all {
		i = int(l.idx[i])
	}
	return l.c.at(i)
}

// Where returns the sub-view of tweets satisfying keep, preserving order.
func (l TweetList) Where(keep func(TweetRecord) bool) TweetList {
	var idx []uint32
	for i, n := 0, l.Len(); i < n; i++ {
		if keep(l.At(i)) {
			j := uint32(i)
			if !l.all {
				j = l.idx[i]
			}
			idx = append(idx, j)
		}
	}
	return TweetList{c: l.c, idx: idx}
}

// ByDay partitions the view into zero-based study-day buckets; tweets
// outside [start, start+days) appear in no bucket.
func (l TweetList) ByDay(start time.Time, days int) []TweetList {
	if days <= 0 {
		return nil
	}
	idxs := make([][]uint32, days)
	startNano := timeToNano(start)
	const dayNanos = int64(24 * time.Hour)
	for i, n := 0, l.Len(); i < n; i++ {
		j := i
		if !l.all {
			j = int(l.idx[i])
		}
		c := l.c.createdNano(j)
		if c == zeroTimeNano {
			continue
		}
		if d := int((c - startNano) / dayNanos); d >= 0 && d < days {
			idxs[d] = append(idxs[d], uint32(j))
		}
	}
	out := make([]TweetList, days)
	for d := range out {
		out[d] = TweetList{c: l.c, idx: idxs[d]}
	}
	return out
}

// ControlList is a read-only view of the control tweets.
type ControlList struct {
	c controlCols
}

// Len reports the number of control tweets.
func (l ControlList) Len() int { return l.c.len() }

// At returns the i'th control tweet.
func (l ControlList) At(i int) ControlRecord { return l.c.at(i) }

// MessageList is a read-only view of messages, optionally index-selected.
type MessageList struct {
	c   msgCols
	idx []uint32
	all bool
}

// Len reports the number of messages in the view.
func (l MessageList) Len() int {
	if l.all {
		return l.c.len()
	}
	return len(l.idx)
}

// At returns the i'th message of the view.
func (l MessageList) At(i int) MessageRecord {
	if !l.all {
		i = int(l.idx[i])
	}
	return l.c.at(i)
}
