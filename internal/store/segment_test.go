package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Hostile-input gates for the segment reader. openSegFile checksums only
// the footer, so a flipped byte inside a column survives open; binding
// must then reject any value that would send a read outside the mapping.

// sealedSegments seals one small segment of each pinned family (tweets,
// control, messages) into a fresh directory and returns the file paths
// by family.
func sealedSegments(t testing.TB) map[string]string {
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
	if err := s.SpillCheck(); err != nil {
		t.Fatal(err)
	}
	paths := map[string]string{}
	for fam, f := range s.SpillManifest().Families {
		paths[fam] = filepath.Join(dir, f.Segments[0].Name)
	}
	for _, fam := range pinnedFams {
		if paths[fam] == "" {
			t.Fatalf("no %s segment sealed", fam)
		}
	}
	return paths
}

// bindSegment opens path as a segment of family fam and binds it.
func bindSegment(path, fam string) error {
	f, err := openSegFile(path, fam)
	if err != nil {
		return err
	}
	defer unmapFile(f.data)
	switch fam {
	case famTweets:
		_, err = bindTweetSeg(f, 0)
	case famControl:
		_, err = bindControlSeg(f, 0)
	case famMessages:
		_, err = bindMsgSeg(f, 0)
	}
	return err
}

// readSegment opens and binds path as a segment of family fam, then reads
// every row through the family's row accessor, touching every byte of
// every string it serves.
func readSegment(path, fam string) error {
	f, err := openSegFile(path, fam)
	if err != nil {
		return err
	}
	defer unmapFile(f.data)
	var sum int
	touch := func(ss ...string) {
		for _, s := range ss {
			for i := 0; i < len(s); i++ {
				sum += int(s[i])
			}
		}
	}
	switch fam {
	case famTweets:
		seg, err := bindTweetSeg(f, 0)
		if err != nil {
			return err
		}
		c := tweetCols{segs: []tweetSeg{seg}, frozen: seg.n}
		for i := 0; i < seg.n; i++ {
			r := c.at(i)
			touch(r.UserID, r.Lang, r.Text, r.GroupCode)
		}
	case famControl:
		seg, err := bindControlSeg(f, 0)
		if err != nil {
			return err
		}
		c := controlCols{segs: []controlSeg{seg}, frozen: seg.n}
		for i := 0; i < seg.n; i++ {
			r := c.at(i)
			touch(r.UserID, r.Lang)
		}
	case famMessages:
		seg, err := bindMsgSeg(f, 0)
		if err != nil {
			return err
		}
		c := msgCols{segs: []msgSeg{seg}, frozen: seg.n}
		for i := 0; i < seg.n; i++ {
			r := c.at(i)
			touch(r.GroupCode, r.Text)
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
// in sealed segments of every pinned family, keeping the file size and
// the footer checksum intact. Each prefix-offset column must start at 0,
// never decrease and end at its blob's length, and each dictionary
// handle must index its dictionary: binding must fail with an error
// naming the segment and the column, and a checkpoint restore pinning
// the file must fail the same way.
func TestSegmentBindRejectsCorruptColumns(t *testing.T) {
	paths := sealedSegments(t)

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
		famTweets:   {"text.off", "users.off", "langs.off", "groups.off"},
		famControl:  {"users.off", "langs.off"},
		famMessages: {"text.off", "groups.off"},
	}
	// handleCols maps each handle column to its dictionary.
	handleCols := map[string][][2]string{
		famTweets:   {{"user", "users"}, {"lang", "langs"}, {"group", "groups"}},
		famControl:  {{"user", "users"}, {"lang", "langs"}},
		famMessages: {{"group", "groups"}},
	}

	check := func(t *testing.T, fam, col string, data []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), filepath.Base(paths[fam]))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := bindSegment(path, fam)
		if err == nil {
			t.Fatalf("bind accepted the corrupt %s column", col)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "column "+col+" ") {
			t.Fatalf("error %q does not name segment %s and column %s", err, path, col)
		}
	}

	for _, fam := range pinnedFams {
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
			col, dict := hc[0], hc[1]
			t.Run(fam+"/"+col+"/handle out of range", func(t *testing.T) {
				data, secs := segmentCopy(t, paths[fam], fam)
				dr, cr := secs[dict+".off"], secs[col]
				if cr[1]-cr[0] < 4 {
					t.Fatalf("%s column is empty", col)
				}
				// Handle columns are uint32: overwrite the column's last
				// entry with the first handle past the dictionary.
				entries := uint32((dr[1]-dr[0])/8 - 1)
				binary.NativeEndian.PutUint32(data[cr[1]-4:], entries)
				check(t, fam, col, data)
			})
		}
	}

	// The same corruption in a pinned file must fail RestoreSpill, since
	// openPinned checks only the row and byte counts.
	t.Run("restore", func(t *testing.T) {
		dir := t.TempDir()
		cfg := SpillConfig{Dir: dir, Budget: 1}
		s := New()
		if err := s.EnableSpill(cfg); err != nil {
			t.Fatal(err)
		}
		rng := benchPCG(3)
		batch := make([]TweetIngest, 16)
		fillTweetBatch(batch, &rng, time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC), 1, len(batch), nil)
		s.AddTweetBatch(batch)
		if err := s.SpillCheck(); err != nil {
			t.Fatal(err)
		}
		m := s.SpillManifest()
		path := filepath.Join(dir, m.Families[famTweets].Segments[0].Name)
		data, _, hi := sectionWords(t, path, famTweets, "text.off")
		setWord(data, hi-1, 1<<40)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := New().RestoreSpill(cfg, m)
		if err == nil || !strings.Contains(err.Error(), "column text.off ") {
			t.Fatalf("RestoreSpill on a corrupt pinned segment: %v, want a text.off error", err)
		}
	})
}

// FuzzSegmentOpen feeds arbitrary bytes to the segment reader as each
// pinned family: open, bind, and read every row. Whatever the input, the
// reader must return an error or serve rows inside the mapping — never
// panic or fault. The seeds are real sealed segments; the checked-in
// corpus under testdata/fuzz holds mutations of them.
func FuzzSegmentOpen(f *testing.F) {
	for _, fam := range pinnedFams {
		data, err := os.ReadFile(sealedSegments(f)[fam])
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
		for _, fam := range pinnedFams {
			readSegment(path, fam)
		}
	})
}
