package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"msgscope/internal/ids"
)

// Hostile-input gates for the segment reader. openSegFile checksums only
// the footer, so a flipped byte inside a column survives open; binding
// must then reject any value that would send a read outside the mapping
// or past the end of a live interning table.

// segFams lists every spilled family.
var segFams = []string{famTweets, famControl, famMessages, famObs}

// sealedSegments seals one small segment of each family (tweets, control,
// messages, observations) into a fresh directory and returns the store —
// whose live tables the segments' handles index — and the file paths by
// family.
func sealedSegments(t testing.TB) (*Store, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, Budget: 1}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	rng := benchPCG(5)
	tweets := make([]TweetIngest, 12)
	fillTweetBatch(tweets, &rng, base, 1, len(tweets), nil)
	s.AddTweetBatch(tweets)
	ctl := make([]ControlRecord, 8)
	for i := range ctl {
		ctl[i] = ControlRecord{
			ID:        uint64(i + 1),
			UserID:    "cu" + strconv.Itoa(i%3),
			CreatedAt: base.Add(time.Duration(i) * time.Second),
			Lang:      benchLangs[i%len(benchLangs)],
		}
	}
	s.AddControlBatch(ctl)
	msgs := make([]MessageRecord, 8)
	fillMessageBatch(msgs, &rng, base, 0, len(msgs))
	for i := range msgs {
		msgs[i].Text = "msg " + strconv.Itoa(i)
	}
	s.AddMessageBatch(msgs)
	// Two observations per group, so every stripe with rows has a chain
	// link to corrupt, with every handle column set.
	gl := s.Groups()
	for sweep := 0; sweep < 2; sweep++ {
		for i, n := 0, gl.Len(); i < n; i++ {
			g := gl.At(i)
			s.AddObservation(g.Platform, g.Code, Observation{
				At: base.Add(time.Duration(sweep*24) * time.Hour), Alive: true, Members: i,
				Title: "T " + g.Code, CreatorPhoneH: HashPhone("+55" + strconv.Itoa(i)),
				CreatorCountry: "BR", CreatorKey: "ck" + strconv.Itoa(i),
			})
		}
	}
	if err := s.SpillCheck(); err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{}
	for _, fam := range segFams {
		p := filepath.Join(dir, fam+"-000000.seg")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("no %s segment sealed: %v", fam, err)
		}
		paths[fam] = p
	}
	return s, paths
}

// readSegment opens path as a segment of family fam, binds it against s's
// live tables, then reads every row through the family's row accessor,
// touching every byte of every string it serves and, for observations,
// following every chain link.
func readSegment(s *Store, path, fam string) error {
	f, err := openSegFile(path, fam)
	if err != nil {
		return err
	}
	defer unmapFile(f.data)
	var sum int
	touch := func(strs ...string) {
		for _, str := range strs {
			for i := 0; i < len(str); i++ {
				sum += int(str[i])
			}
		}
	}
	switch fam {
	case famTweets:
		c := tweetCols{userTab: s.tweets.userTab, langTab: s.tweets.langTab, groupTab: s.tweets.groupTab}
		seg, err := bindTweetSeg(f, 0, &c)
		if err != nil {
			return err
		}
		c.segs, c.frozen = []tweetSeg{seg}, seg.n
		for i := 0; i < seg.n; i++ {
			r := c.at(i)
			touch(r.UserID, r.Lang, r.Text, r.GroupCode)
		}
	case famControl:
		c := controlCols{userTab: s.control.userTab, langTab: s.control.langTab}
		seg, err := bindControlSeg(f, 0, &c)
		if err != nil {
			return err
		}
		c.segs, c.frozen = []controlSeg{seg}, seg.n
		for i := 0; i < seg.n; i++ {
			r := c.at(i)
			touch(r.UserID, r.Lang)
		}
	case famMessages:
		c := msgCols{groupTab: s.msgs.groupTab}
		seg, err := bindMsgSeg(f, 0, &c)
		if err != nil {
			return err
		}
		c.segs, c.frozen = []msgSeg{seg}, seg.n
		for i := 0; i < seg.n; i++ {
			r := c.at(i)
			touch(r.GroupCode, r.Text)
		}
	case famObs:
		for stripe, rows := range f.foot.StripeRows {
			if stripe >= numStripes {
				return fmt.Errorf("segment %s: %d stripes", path, len(f.foot.StripeRows))
			}
			if rows == 0 {
				continue
			}
			tab := s.groups.stripes[stripe].tab
			seg, err := bindObsSeg(f, stripe, 0, int(rows), tab)
			if err != nil {
				return err
			}
			c := obsCols{segs: []obsSeg{seg}, frozen: seg.n}
			for i := 0; i < seg.n; i++ {
				o := c.recordAt(uint32(i), tab)
				touch(o.Title, o.CreatorPhoneH, o.CreatorCountry, o.CreatorKey)
				if next := c.nextAt(i); next != 0 {
					sum += int(c.atNano(int(next - 1)))
				}
			}
		}
	}
	_ = sum
	return nil
}

// segmentCopy returns a copy of the segment file at path and the byte
// range [off, end) of each of its sections within that copy. Every
// section is 8-byte aligned.
func segmentCopy(t *testing.T, path, fam string) (data []byte, secs map[string][2]int) {
	t.Helper()
	f, err := openSegFile(path, fam)
	if err != nil {
		t.Fatal(err)
	}
	data = append([]byte(nil), f.data...)
	unmapFile(f.data)
	secs = map[string][2]int{}
	for _, s := range f.foot.Sections {
		secs[s.Name] = [2]int{int(s.Off), int(s.Off + s.Len)}
	}
	return data, secs
}

// sectionWords is segmentCopy narrowed to one section, as the uint64-word
// index range [lo, hi): word i is bytes [8i, 8i+8).
func sectionWords(t *testing.T, path, fam, name string) (data []byte, lo, hi int) {
	t.Helper()
	data, secs := segmentCopy(t, path, fam)
	r, ok := secs[name]
	if !ok {
		t.Fatalf("%s segment has no section %s", fam, name)
	}
	return data, r[0] / 8, r[1] / 8
}

func word(data []byte, i int) uint64 { return binary.NativeEndian.Uint64(data[8*i:]) }

func setWord(data []byte, i int, v uint64) { binary.NativeEndian.PutUint64(data[8*i:], v) }

// TestSegmentBindRejectsCorruptColumns corrupts one column value at a time
// in sealed segments of every family, keeping the file size and the
// footer checksum intact. Each prefix-offset column must start at 0,
// never decrease and end at its blob's length; each handle column must
// stay below its live table's length; each observation chain link must be
// 0 or name a row below the segment's end. Binding must fail with an
// error naming the segment and the column.
func TestSegmentBindRejectsCorruptColumns(t *testing.T) {
	s, paths := sealedSegments(t)

	type corruption struct {
		name string
		// mutate edits the words [lo, hi) of the column's section.
		mutate func(data []byte, lo, hi int)
	}
	offsetCorruptions := []corruption{
		{"nonzero start", func(d []byte, lo, hi int) { setWord(d, lo, 1) }},
		{"decreasing", func(d []byte, lo, hi int) { setWord(d, hi-2, word(d, hi-1)+1) }},
		{"end past blob", func(d []byte, lo, hi int) { setWord(d, hi-1, 1<<40) }},
		{"end short of blob", func(d []byte, lo, hi int) { setWord(d, hi-1, word(d, hi-2)) }},
	}
	offsetCols := map[string][]string{
		famTweets:   {"text.off"},
		famMessages: {"text.off"},
	}

	// The observation fixture's first stripe with rows names the obs
	// columns under test.
	f, err := openSegFile(paths[famObs], famObs)
	if err != nil {
		t.Fatal(err)
	}
	stripe := -1
	for i, n := range f.foot.StripeRows {
		if n >= 2 {
			stripe = i
			break
		}
	}
	unmapFile(f.data)
	if stripe < 0 {
		t.Fatal("no observation stripe sealed two rows")
	}
	pre := fmt.Sprintf("s%02d.", stripe)
	obsTab := s.groups.stripes[stripe].tab

	// handleCols maps each handle column to the live table it indexes.
	handleCols := map[string][]struct {
		col string
		tab *ids.Table
	}{
		famTweets:   {{"user", s.tweets.userTab}, {"lang", s.tweets.langTab}, {"group", s.tweets.groupTab}},
		famControl:  {{"user", s.control.userTab}, {"lang", s.control.langTab}},
		famMessages: {{"group", s.msgs.groupTab}},
		famObs: {{pre + "title", obsTab}, {pre + "phoneH", obsTab},
			{pre + "country", obsTab}, {pre + "creator", obsTab}},
	}

	check := func(t *testing.T, fam, col string, data []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), filepath.Base(paths[fam]))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := readSegment(s, path, fam)
		if err == nil {
			t.Fatalf("bind accepted the corrupt %s column", col)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "column "+col+" ") {
			t.Fatalf("error %q does not name segment %s and column %s", err, path, col)
		}
	}

	for _, fam := range segFams {
		if err := readSegment(s, paths[fam], fam); err != nil {
			t.Fatalf("uncorrupted %s segment: %v", fam, err)
		}
		for _, col := range offsetCols[fam] {
			for _, c := range offsetCorruptions {
				t.Run(fam+"/"+col+"/"+c.name, func(t *testing.T) {
					data, lo, hi := sectionWords(t, paths[fam], fam, col)
					if hi-lo < 2 || word(data, hi-1) == 0 {
						t.Fatalf("%s has %d entries ending at %d; the fixture needs a non-empty blob", col, hi-lo, word(data, hi-1))
					}
					c.mutate(data, lo, hi)
					check(t, fam, col, data)
				})
			}
		}
		for _, hc := range handleCols[fam] {
			col, tab := hc.col, hc.tab
			t.Run(fam+"/"+col+"/handle out of range", func(t *testing.T) {
				data, secs := segmentCopy(t, paths[fam], fam)
				cr := secs[col]
				if cr[1]-cr[0] < 4 {
					t.Fatalf("%s column is empty", col)
				}
				// Handle columns are uint32: overwrite the column's last
				// entry with the first handle past the live table.
				binary.NativeEndian.PutUint32(data[cr[1]-4:], uint32(tab.Len()))
				check(t, fam, col, data)
			})
		}
	}

	t.Run("obs/"+pre+"next/link past end", func(t *testing.T) {
		data, secs := segmentCopy(t, paths[famObs], famObs)
		cr := secs[pre+"next"]
		rows := (cr[1] - cr[0]) / 4
		// Link rows+1 names row rows, one past the stripe's last row.
		binary.NativeEndian.PutUint32(data[cr[0]:], uint32(rows+1))
		check(t, famObs, pre+"next", data)
	})
}

// FuzzSegmentOpen feeds arbitrary bytes to the segment reader as each
// family: open, bind against live tables, and read every row (following
// observation chain links). Whatever the input, the reader must return an
// error or serve rows inside the mapping and the tables — never panic or
// fault. The seeds are real sealed segments; the checked-in corpus under
// testdata/fuzz holds mutations of them.
func FuzzSegmentOpen(f *testing.F) {
	s, paths := sealedSegments(f)
	for _, fam := range segFams {
		data, err := os.ReadFile(paths[fam])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, fam := range segFams {
			readSegment(s, path, fam)
		}
	})
}
