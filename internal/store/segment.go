package store

// Immutable on-disk column segments — the spill tier's file format and the
// typed views the columnar families serve frozen rows from (DESIGN.md §16).
//
// A segment file holds one sealed batch of rows for one family, columns
// written contiguously as raw slice memory:
//
//	[8]   magic "MSGSEG01"
//	[...] sections, each 8-byte aligned: one column dumped as
//	      native-endian memory
//	[...] JSON footer (segFooter): family, row count, section directory
//	[24]  trailer: footerOff u64 | footerLen u64 | crc32(footer) u32 | "MSEG"
//
// Readers locate the footer from the fixed-size trailer, then bind each
// section as a typed slice pointing straight into the mapping — no decode
// step, no per-row allocation.
//
// Segments are per-run scratch: only the process that sealed a file ever
// maps it, and every start (fresh or resumed) clears the spill directory
// (EnableSpill). That is what lets interned-string columns store the live
// ids.Table handles the heap columns hold — handles are stable for a
// table's lifetime — so a frozen row resolves through the same tab.Lookup
// as a hot one. Free text (tweet and message bodies) is stored as a
// prefix-offset column over a contiguous blob, read through unsafe.String
// views exactly as the textArena serves hot rows.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"unsafe"

	"msgscope/internal/ids"
)

const (
	segMagic        = "MSGSEG01"
	segTrailerMagic = "MSEG"
	segTrailerLen   = 24
)

type segSection struct {
	Name string `json:"n"`
	Off  int64  `json:"o"`
	Len  int64  `json:"l"`
}

type segFooter struct {
	Family   string       `json:"family"`
	Rows     int64        `json:"rows"`
	Sections []segSection `json:"sections"`
}

// castBytes reinterprets a typed column as its raw memory.
func castBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// castSlice reinterprets a mapped section as a typed column. The writer
// 8-byte aligns every section, so the cast never misaligns.
func castSlice[T any](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var z T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(z)))
}

var segPad [8]byte

// segWriter streams one segment file: sections in order, then footer and
// trailer, written to a temp name and renamed into place so a crash
// mid-seal never leaves a half-written .seg behind.
type segWriter struct {
	dir, name string
	tmp       string
	f         *os.File
	bw        *bufio.Writer
	off       int64
	foot      segFooter
	err       error
}

func newSegWriter(dir, name, family string) (*segWriter, error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &segWriter{
		dir: dir, name: name, tmp: tmp, f: f,
		bw:   bufio.NewWriterSize(f, 1<<20),
		foot: segFooter{Family: family},
	}
	w.writeRaw([]byte(segMagic))
	return w, nil
}

func (w *segWriter) writeRaw(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.bw.Write(p)
	w.off += int64(n)
	w.err = err
}

func (w *segWriter) writeString(s string) {
	if w.err != nil {
		return
	}
	n, err := w.bw.WriteString(s)
	w.off += int64(n)
	w.err = err
}

// begin opens a named section at the next 8-byte boundary.
func (w *segWriter) begin(name string) {
	if pad := int(-w.off & 7); pad > 0 {
		w.writeRaw(segPad[:pad])
	}
	w.foot.Sections = append(w.foot.Sections, segSection{Name: name, Off: w.off})
}

func (w *segWriter) end() {
	s := &w.foot.Sections[len(w.foot.Sections)-1]
	s.Len = w.off - s.Off
}

func (w *segWriter) section(name string, p []byte) {
	w.begin(name)
	w.writeRaw(p)
	w.end()
}

// finish writes the footer and trailer, syncs, and renames the temp file
// to its final name, returning the final path and the file size.
func (w *segWriter) finish(rows int64) (string, int64, error) {
	w.foot.Rows = rows
	fj, err := json.Marshal(&w.foot)
	if err != nil {
		w.abort()
		return "", 0, err
	}
	footOff := w.off
	w.writeRaw(fj)
	var tr [segTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(footOff))
	binary.LittleEndian.PutUint64(tr[8:], uint64(len(fj)))
	binary.LittleEndian.PutUint32(tr[16:], crc32.ChecksumIEEE(fj))
	copy(tr[20:], segTrailerMagic)
	w.writeRaw(tr[:])
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	if w.err == nil {
		w.err = w.f.Sync()
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		os.Remove(w.tmp)
		return "", 0, fmt.Errorf("store: writing segment %s: %w", w.name, w.err)
	}
	final := filepath.Join(w.dir, w.name)
	if err := os.Rename(w.tmp, final); err != nil {
		os.Remove(w.tmp)
		return "", 0, err
	}
	if err := syncSegDir(w.dir); err != nil {
		return "", 0, err
	}
	return final, w.off, nil
}

func (w *segWriter) abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

func syncSegDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// segFile is one mapped segment: the raw mapping plus the parsed section
// directory. The mapping lives as long as the owning store does — views
// handed out by the lists alias it, so it is never unmapped mid-run.
type segFile struct {
	path string
	data []byte
	foot segFooter
	sect map[string][]byte
}

func openSegFile(path, family string) (*segFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(segMagic))+segTrailerLen {
		return nil, fmt.Errorf("store: segment %s: truncated (%d bytes)", path, size)
	}
	data, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("store: mapping segment %s: %w", path, err)
	}
	corrupt := func(what string) error {
		unmapFile(data)
		return fmt.Errorf("store: segment %s: %s", path, what)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, corrupt("bad magic")
	}
	tr := data[size-segTrailerLen:]
	if string(tr[20:24]) != segTrailerMagic {
		return nil, corrupt("bad trailer magic")
	}
	footOff := int64(binary.LittleEndian.Uint64(tr[0:]))
	footLen := int64(binary.LittleEndian.Uint64(tr[8:]))
	// Bounds are compared without summing, so no stored value can
	// overflow past a check.
	if footOff < int64(len(segMagic)) || footLen <= 0 || footOff > size-segTrailerLen ||
		footLen > size-segTrailerLen-footOff {
		return nil, corrupt("footer out of bounds")
	}
	fj := data[footOff : footOff+footLen]
	if crc32.ChecksumIEEE(fj) != binary.LittleEndian.Uint32(tr[16:]) {
		return nil, corrupt("footer checksum mismatch")
	}
	sf := &segFile{path: path, data: data}
	if err := json.Unmarshal(fj, &sf.foot); err != nil {
		return nil, corrupt("footer: " + err.Error())
	}
	if sf.foot.Family != family {
		return nil, corrupt(fmt.Sprintf("family %q, want %q", sf.foot.Family, family))
	}
	sf.sect = make(map[string][]byte, len(sf.foot.Sections))
	for _, s := range sf.foot.Sections {
		if s.Off < 0 || s.Len < 0 || s.Off > footOff || s.Len > footOff-s.Off || s.Off&7 != 0 {
			return nil, corrupt("section " + s.Name + " out of bounds")
		}
		sf.sect[s.Name] = data[s.Off : s.Off : s.Off+s.Len][:s.Len]
	}
	return sf, nil
}

func (f *segFile) sec(name string) []byte { return f.sect[name] }

// segCheck accumulates validation when binding a segment: column lengths
// against the footer's row count, and column values wherever a bad one
// would send a read outside the mapping or a live table — prefix offsets
// into a blob, handles into an interning table, and observation chain
// links. The first violation wins; later checks are no-ops.
type segCheck struct {
	f   *segFile
	err error
}

func (c *segCheck) fail(col, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("store: segment %s: column %s %s", c.f.path, col, fmt.Sprintf(format, args...))
	}
}

func (c *segCheck) want(name string, got, n int) {
	if got != n {
		c.fail(name, "has %d rows, want %d", got, n)
	}
}

// offsets checks a prefix-offset column over blob: it starts at 0, never
// decreases, and ends at len(blob), so every [off[i], off[i+1]) slice
// lies inside the blob.
func (c *segCheck) offsets(name string, off []uint64, blob []byte) {
	if c.err != nil || len(off) == 0 {
		return
	}
	if off[0] != 0 {
		c.fail(name, "starts at %d, want 0", off[0])
		return
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			c.fail(name, "decreases at entry %d (%d after %d)", i, off[i], off[i-1])
			return
		}
	}
	if last := off[len(off)-1]; last != uint64(len(blob)) {
		c.fail(name, "ends at %d, blob has %d bytes", last, len(blob))
	}
}

// handles checks that every entry of a handle column names an entry of
// the live table tab.
func (c *segCheck) handles(name string, col []uint32, tab *ids.Table) {
	if c.err != nil {
		return
	}
	n := uint32(tab.Len())
	for i, h := range col {
		if h >= n {
			c.fail(name, "row %d: handle %d outside its %d-entry table", i, h, n)
			return
		}
	}
}

// links checks that every observation chain link is 0 (end of chain) or
// names a row (link-1) below end, the global row past the segment.
func (c *segCheck) links(name string, next []uint32, end int) {
	if c.err != nil {
		return
	}
	for i, v := range next {
		if int64(v) > int64(end) {
			c.fail(name, "row %d: link %d past the segment's end row %d", i, v, end)
			return
		}
	}
}

// tweetSeg serves one sealed run of tweet rows [start, start+n).
type tweetSeg struct {
	start, n int

	ids      []uint64
	user     []uint32 // userTab handle
	created  []int64
	lang     []uint32 // langTab handle
	hashtags []int32
	mentions []int32
	flags    []uint8 // COW-mutable: late source-bit merges land here
	plat     []uint8
	group    []uint32 // groupTab handle
	textOff  []uint64 // n+1 prefix offsets into textBlob
	textBlob []byte
}

func (s *tweetSeg) text(j int) string {
	lo, hi := s.textOff[j], s.textOff[j+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&s.textBlob[lo], int(hi-lo))
}

// bindTweetSeg binds f's tweet rows [start, start+n), validating its
// handle columns against c's live tables.
func bindTweetSeg(f *segFile, start int, c *tweetCols) (tweetSeg, error) {
	n := int(f.foot.Rows)
	s := tweetSeg{
		start: start, n: n,
		ids:      castSlice[uint64](f.sec("ids")),
		user:     castSlice[uint32](f.sec("user")),
		created:  castSlice[int64](f.sec("created")),
		lang:     castSlice[uint32](f.sec("lang")),
		hashtags: castSlice[int32](f.sec("hashtags")),
		mentions: castSlice[int32](f.sec("mentions")),
		flags:    f.sec("flags"),
		plat:     f.sec("plat"),
		group:    castSlice[uint32](f.sec("group")),
		textOff:  castSlice[uint64](f.sec("text.off")),
		textBlob: f.sec("text.blob"),
	}
	k := segCheck{f: f}
	k.want("ids", len(s.ids), n)
	k.want("user", len(s.user), n)
	k.want("created", len(s.created), n)
	k.want("lang", len(s.lang), n)
	k.want("hashtags", len(s.hashtags), n)
	k.want("mentions", len(s.mentions), n)
	k.want("flags", len(s.flags), n)
	k.want("plat", len(s.plat), n)
	k.want("group", len(s.group), n)
	k.want("text.off", len(s.textOff), n+1)
	k.offsets("text.off", s.textOff, s.textBlob)
	k.handles("user", s.user, c.userTab)
	k.handles("lang", s.lang, c.langTab)
	k.handles("group", s.group, c.groupTab)
	return s, k.err
}

// controlSeg serves sealed control-tweet rows.
type controlSeg struct {
	start, n int

	ids      []uint64
	user     []uint32
	created  []int64
	lang     []uint32
	hashtags []int32
	mentions []int32
	flags    []uint8
}

// bindControlSeg binds f's control rows, validating handles against c's
// live tables.
func bindControlSeg(f *segFile, start int, c *controlCols) (controlSeg, error) {
	n := int(f.foot.Rows)
	s := controlSeg{
		start: start, n: n,
		ids:      castSlice[uint64](f.sec("ids")),
		user:     castSlice[uint32](f.sec("user")),
		created:  castSlice[int64](f.sec("created")),
		lang:     castSlice[uint32](f.sec("lang")),
		hashtags: castSlice[int32](f.sec("hashtags")),
		mentions: castSlice[int32](f.sec("mentions")),
		flags:    f.sec("flags"),
	}
	k := segCheck{f: f}
	k.want("ids", len(s.ids), n)
	k.want("user", len(s.user), n)
	k.want("created", len(s.created), n)
	k.want("lang", len(s.lang), n)
	k.want("hashtags", len(s.hashtags), n)
	k.want("mentions", len(s.mentions), n)
	k.want("flags", len(s.flags), n)
	k.handles("user", s.user, c.userTab)
	k.handles("lang", s.lang, c.langTab)
	return s, k.err
}

// msgSeg serves sealed message rows.
type msgSeg struct {
	start, n int

	plat     []uint8
	group    []uint32 // groupTab handle
	author   []uint64
	sent     []int64
	typ      []uint8
	textOff  []uint64
	textBlob []byte
}

func (s *msgSeg) text(j int) string {
	lo, hi := s.textOff[j], s.textOff[j+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&s.textBlob[lo], int(hi-lo))
}

// bindMsgSeg binds f's message rows, validating handles against c's live
// table.
func bindMsgSeg(f *segFile, start int, c *msgCols) (msgSeg, error) {
	n := int(f.foot.Rows)
	s := msgSeg{
		start: start, n: n,
		plat:     f.sec("plat"),
		group:    castSlice[uint32](f.sec("group")),
		author:   castSlice[uint64](f.sec("author")),
		sent:     castSlice[int64](f.sec("sent")),
		typ:      f.sec("typ"),
		textOff:  castSlice[uint64](f.sec("text.off")),
		textBlob: f.sec("text.blob"),
	}
	k := segCheck{f: f}
	k.want("plat", len(s.plat), n)
	k.want("group", len(s.group), n)
	k.want("author", len(s.author), n)
	k.want("sent", len(s.sent), n)
	k.want("typ", len(s.typ), n)
	k.want("text.off", len(s.textOff), n+1)
	k.offsets("text.off", s.textOff, s.textBlob)
	k.handles("group", s.group, c.groupTab)
	return s, k.err
}

// obsSeg serves sealed observation rows. Handle columns
// (title/phoneH/country/creator) hold the group table's handles, like
// every segment's. next is COW-mutable: a chain whose tail was sealed is
// extended by welding the frozen tail's next pointer to the new heap row.
type obsSeg struct {
	start, n int

	at        []int64
	createdAt []int64
	title     []uint32
	phoneH    []uint32
	country   []uint32
	creator   []uint32
	members   []int32
	online    []int32
	flags     []uint8
	next      []uint32
}

// bindObsSeg binds f's observation rows as rows [start, start+n) of the
// family, validating handles against the group family's live table and
// chain links against the segment's end.
func bindObsSeg(f *segFile, start int, tab *ids.Table) (obsSeg, error) {
	n := int(f.foot.Rows)
	s := obsSeg{
		start: start, n: n,
		at:        castSlice[int64](f.sec("at")),
		createdAt: castSlice[int64](f.sec("createdAt")),
		title:     castSlice[uint32](f.sec("title")),
		phoneH:    castSlice[uint32](f.sec("phoneH")),
		country:   castSlice[uint32](f.sec("country")),
		creator:   castSlice[uint32](f.sec("creator")),
		members:   castSlice[int32](f.sec("members")),
		online:    castSlice[int32](f.sec("online")),
		flags:     f.sec("flags"),
		next:      castSlice[uint32](f.sec("next")),
	}
	c := segCheck{f: f}
	c.want("at", len(s.at), n)
	c.want("createdAt", len(s.createdAt), n)
	c.want("title", len(s.title), n)
	c.want("phoneH", len(s.phoneH), n)
	c.want("country", len(s.country), n)
	c.want("creator", len(s.creator), n)
	c.want("members", len(s.members), n)
	c.want("online", len(s.online), n)
	c.want("flags", len(s.flags), n)
	c.want("next", len(s.next), n)
	c.handles("title", s.title, tab)
	c.handles("phoneH", s.phoneH, tab)
	c.handles("country", s.country, tab)
	c.handles("creator", s.creator, tab)
	c.links("next", s.next, start+n)
	return s, c.err
}
