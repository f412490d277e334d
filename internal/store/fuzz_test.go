package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"msgscope/internal/checkpoint"
	"msgscope/internal/platform"
)

// nonEmptyLines counts the records a JSONL reader sees in b.
func nonEmptyLines(b []byte) int64 {
	var n int64
	for _, line := range bytes.Split(b, []byte("\n")) {
		if len(line) > 0 {
			n++
		}
	}
	return n
}

// addLineSeeds seeds a fuzz target with each line of a JSONL file as its
// own input. One-line inputs keep coverage-guided minimization, which is
// quadratic in input length, from eating a short fuzz run.
func addLineSeeds(f *testing.F, which uint8, b []byte) {
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if len(line) > 0 {
			f.Add(which, line)
		}
	}
}

// fillFuzzStore ingests a few records of every kind the checkpoint logs
// and dataset files carry — merged tweet sources, control tweets, a
// joined group with an observation, a deferral, messages, a post and
// users — keeping the fuzz seeds small enough to minimize quickly.
func fillFuzzStore(s *Store) {
	base := time.Date(2019, 4, 2, 0, 0, 0, 0, time.UTC)
	for i, p := range platform.All {
		s.AddTweetBatch([]TweetIngest{{
			Tweet: TweetRecord{ID: uint64(i + 1), UserID: "u", CreatedAt: base, Lang: "en", Hashtags: i,
				Text: "join <here>", Platform: p, GroupCode: "g" + p.String(), Source: SourceSearch},
			Canonical: "https://example.invalid/" + p.String(),
		}})
	}
	s.AddTweet(TweetRecord{ID: 1, Platform: platform.All[0], GroupCode: "g" + platform.All[0].String(),
		CreatedAt: base, Source: SourceStream})
	s.AddControl(ControlRecord{ID: 100, UserID: "c", CreatedAt: base, Lang: "en", Retweet: true})
	wa, tg := platform.WhatsApp, platform.Telegram
	s.MarkJoined(wa, "g"+wa.String(), func(g *GroupRecord) {
		g.MemberCount = 3
		g.CreatorKey = "ck"
	})
	s.AddObservation(wa, "g"+wa.String(), Observation{At: base, Alive: true, Members: 3, Title: "t"})
	s.MarkDeferred(tg, "g"+tg.String(), "monitor")
	for i := 0; i < 3; i++ {
		s.AddMessage(MessageRecord{Platform: wa, GroupCode: "g" + wa.String(), AuthorKey: uint64(i),
			SentAt: base.Add(time.Duration(i) * time.Minute), Type: platform.MessageType(i), Text: "hi"})
	}
	s.AddPost(PostRecord{ID: 7, Author: "a", CreatedAt: base, Text: "post", Platform: platform.Discord, GroupCode: "gp"})
	s.UpsertUser(UserRecord{Platform: wa, Key: 1, PhoneHash: HashPhone("+5511"), Country: "BR", Creator: true})
	s.UpsertUser(UserRecord{Platform: tg, Key: 2, Linked: []string{"dc:2"}})
}

// checkpointLogs captures fillFuzzStore into a fresh checkpoint and
// returns each log's bytes.
func checkpointLogs(f testing.TB) map[string][]byte {
	dir := f.TempDir()
	s := New()
	w, err := s.OpenCheckpointWriter(dir)
	if err != nil {
		f.Fatal(err)
	}
	fillFuzzStore(s)
	if _, err := w.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	logs := map[string][]byte{}
	for _, name := range logNames {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		logs[name] = b
	}
	return logs
}

// FuzzCheckpointReplay replays a checkpoint whose logs are all valid but
// one, which holds arbitrary bytes (seeded with single valid records). The
// manifest pins that log at its full size and record count, so replay
// reads every byte. Whatever the bytes, LoadCheckpoint must succeed or
// return an error wrapping ErrCorruptLog — never panic.
func FuzzCheckpointReplay(f *testing.F) {
	logs := checkpointLogs(f)
	for i, name := range logNames {
		addLineSeeds(f, uint8(i), logs[name])
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dir := t.TempDir()
		states := map[string]checkpoint.LogState{}
		for i, name := range logNames {
			b := logs[name]
			if i == int(which)%len(logNames) {
				b = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
			states[name] = checkpoint.LogState{Bytes: int64(len(b)), Records: nonEmptyLines(b)}
		}
		if err := New().LoadCheckpoint(dir, states); err != nil && !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("LoadCheckpoint: %v does not wrap ErrCorruptLog", err)
		}
	})
}

// FuzzLoad loads a dataset directory holding one file of arbitrary bytes.
// Load must return an error or a store, never panic; a store it returns
// must snapshot and save like any other.
func FuzzLoad(f *testing.F) {
	dir, s := f.TempDir(), New()
	fillFuzzStore(s)
	if err := s.Save(dir); err != nil {
		f.Fatal(err)
	}
	for i, name := range datasetFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		addLineSeeds(f, uint8(i), b)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dir := t.TempDir()
		name := datasetFiles[int(which)%len(datasetFiles)]
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(dir)
		if err != nil {
			return
		}
		s.Snapshot(time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC), 38)
		if err := s.Save(t.TempDir()); err != nil {
			t.Fatalf("Save after a successful Load: %v", err)
		}
	})
}

// TestLoadCheckpointRejectionsWrapErrCorruptLog damages one log (or its
// manifest state) per case; every rejection must wrap ErrCorruptLog.
func TestLoadCheckpointRejectionsWrapErrCorruptLog(t *testing.T) {
	logs := checkpointLogs(t)
	cases := []struct {
		name   string
		log    string
		data   string // replaces the log's bytes when non-empty
		states func(map[string]checkpoint.LogState)
	}{
		{name: "short-log", log: logTweets, states: func(m map[string]checkpoint.LogState) {
			st := m[logTweets]
			st.Bytes += 10
			m[logTweets] = st
		}},
		{name: "record-count-mismatch", log: logControl, states: func(m map[string]checkpoint.LogState) {
			st := m[logControl]
			st.Records++
			m[logControl] = st
		}},
		{name: "missing-log-state", log: logPosts, states: func(m map[string]checkpoint.LogState) {
			delete(m, logPosts)
		}},
		{name: "undecodable-line", log: logMessages, data: `{"platform":` + "\n"},
		{name: "event-for-unknown-group", log: logEvents, data: `{"k":"obs","p":1,"c":"nope","o":{"at":"2019-04-02T00:00:00Z"}}` + "\n"},
		{name: "grp-event-for-unknown-group", log: logEvents, data: `{"k":"grp","g":{"platform":1,"code":"nope"}}` + "\n"},
		{name: "unknown-event-kind", log: logEvents, data: `{"k":"zzz"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			states := map[string]checkpoint.LogState{}
			for _, name := range logNames {
				b := logs[name]
				if name == tc.log && tc.data != "" {
					b = []byte(tc.data)
				}
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
				states[name] = checkpoint.LogState{Bytes: int64(len(b)), Records: nonEmptyLines(b)}
			}
			if tc.states != nil {
				tc.states(states)
			}
			err := New().LoadCheckpoint(dir, states)
			if !errors.Is(err, ErrCorruptLog) {
				t.Fatalf("LoadCheckpoint = %v, want an error wrapping ErrCorruptLog", err)
			}
		})
	}
}
