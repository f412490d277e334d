package store

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"msgscope/internal/platform"
)

// The dataset and checkpoint JSONL files go through encoding/json; these
// tests pin what the files must preserve: every record field, the
// escaping of awkward strings, forward compatibility with unknown keys
// and a line-numbered error surface.

func codecTime(rng *rand.Rand) time.Time {
	t := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Int64N(int64(90 * 24 * time.Hour))))
	switch rng.IntN(3) {
	case 0:
		t = t.Truncate(time.Second)
	case 1:
		t = t.Add(time.Duration(rng.Int64N(1e9)))
	}
	return t
}

// trickyStrings exercises the encoder's escaping: HTML characters,
// control characters, multi-byte runes, U+2028/29, invalid UTF-8.
var trickyStrings = []string{
	"", "plain", `with "quotes" and \backslash`, "tab\tnew\nline",
	"<script>&amp;</script>", "émoji \U0001F600 中文", "line sep ",
	"ctrl\x01\x1f", "bad\xffutf8", "ends high \xed",
}

func pick(rng *rand.Rand, ss []string) string { return ss[rng.IntN(len(ss))] }

func randTweet(rng *rand.Rand) TweetRecord {
	return TweetRecord{
		ID:        rng.Uint64(),
		UserID:    pick(rng, trickyStrings),
		CreatedAt: codecTime(rng),
		Lang:      pick(rng, []string{"en", "pt", "", "hi"}),
		Hashtags:  rng.IntN(5),
		Mentions:  rng.IntN(5),
		Retweet:   rng.IntN(2) == 0,
		Text:      pick(rng, trickyStrings),
		Platform:  platform.Platform(rng.IntN(4)),
		GroupCode: pick(rng, trickyStrings),
		Source:    TweetSource(rng.IntN(4)),
	}
}

func randControl(rng *rand.Rand) ControlRecord {
	return ControlRecord{
		ID:        rng.Uint64(),
		UserID:    pick(rng, trickyStrings),
		CreatedAt: codecTime(rng),
		Lang:      pick(rng, []string{"en", "es", ""}),
		Hashtags:  rng.IntN(5),
		Mentions:  rng.IntN(5),
		Retweet:   rng.IntN(2) == 0,
	}
}

func randMessage(rng *rand.Rand) MessageRecord {
	return MessageRecord{
		Platform:  platform.Platform(rng.IntN(4)),
		GroupCode: pick(rng, trickyStrings),
		AuthorKey: rng.Uint64(),
		SentAt:    codecTime(rng),
		Type:      platform.MessageType(rng.IntN(5)),
		Text:      pick(rng, trickyStrings), // "" exercises omitempty
	}
}

func randUser(rng *rand.Rand) UserRecord {
	u := UserRecord{
		Platform: platform.Platform(rng.IntN(4)),
		Key:      rng.Uint64(),
		Creator:  rng.IntN(2) == 0,
	}
	if rng.IntN(2) == 0 {
		u.PhoneHash = pick(rng, trickyStrings)
	}
	if rng.IntN(2) == 0 {
		u.Country = pick(rng, []string{"IN", "BR", "US"})
	}
	for i := rng.IntN(3); i > 0; i-- {
		u.Linked = append(u.Linked, pick(rng, trickyStrings))
	}
	return u
}

func randPost(rng *rand.Rand) PostRecord {
	return PostRecord{
		ID:        rng.Uint64(),
		Author:    pick(rng, trickyStrings),
		CreatedAt: codecTime(rng),
		Text:      pick(rng, trickyStrings),
		Platform:  platform.Platform(rng.IntN(4)),
		GroupCode: pick(rng, trickyStrings),
	}
}

// checkCodec verifies that WriteJSONL followed by ReadJSONL reproduces a
// batch of records exactly (up to normTimes).
func checkCodec[T any](t *testing.T, items []T) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, items); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL[T](&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(items) {
		t.Fatalf("ReadJSONL returned %d records, want %d", len(got), len(items))
	}
	for i := range items {
		if !reflect.DeepEqual(normTimes(got[i]), normTimes(items[i])) {
			t.Fatalf("record %d round-trips as\n %+v\nwant\n %+v", i, got[i], items[i])
		}
	}
}

// normTimes re-marshals through encoding/json so wall-clock monotonic
// bits (which no serializer preserves) and invalid UTF-8 (which encodes
// as U+FFFD) don't fail DeepEqual.
func normTimes[T any](v T) T {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return out
}

// TestCodecsMatchEncodingJSON round-trips random records of every family,
// built from trickyStrings, through WriteJSONL and ReadJSONL.
func TestCodecsMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	const n = 300
	tweets := make([]TweetRecord, n)
	controls := make([]ControlRecord, n)
	msgs := make([]MessageRecord, n)
	users := make([]UserRecord, n)
	posts := make([]PostRecord, n)
	for i := 0; i < n; i++ {
		tweets[i] = randTweet(rng)
		controls[i] = randControl(rng)
		msgs[i] = randMessage(rng)
		users[i] = randUser(rng)
		posts[i] = randPost(rng)
	}
	t.Run("tweets", func(t *testing.T) { checkCodec(t, tweets) })
	t.Run("control", func(t *testing.T) { checkCodec(t, controls) })
	t.Run("messages", func(t *testing.T) { checkCodec(t, msgs) })
	t.Run("users", func(t *testing.T) { checkCodec(t, users) })
	t.Run("posts", func(t *testing.T) { checkCodec(t, posts) })
}

// TestCodecReadsOracleOutputWithUnknownKeys pins forward compatibility:
// fields the reader does not know are skipped rather than erroring, so
// older binaries can read newer files.
func TestCodecReadsOracleOutputWithUnknownKeys(t *testing.T) {
	in := `{"id":7,"user_id":"u","created_at":"2020-04-01T12:00:00Z","future_field":{"a":[1,2,{"b":null}]},"lang":"en","hashtags":1,"mentions":0,"retweet":true,"text":"t","platform":1,"group_code":"g","source":1}` + "\n"
	got, err := ReadJSONL[TweetRecord](bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != 1 || got[0].ID != 7 || !got[0].Retweet || got[0].Lang != "en" {
		t.Fatalf("unexpected decode: %+v", got)
	}
}

// TestCodecRejectsMalformedLine pins the error surface: a truncated line
// must produce a decode error naming the line, not a panic.
func TestCodecRejectsMalformedLine(t *testing.T) {
	in := `{"id":1}` + "\n\n" + `{"id":7,"user_id":"u"` + "\n"
	_, err := ReadJSONL[TweetRecord](bytes.NewReader([]byte(in)))
	if err == nil {
		t.Fatal("truncated line decoded without error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
}

// TestSaveLoadKeepsTrickyStrings round-trips every trickyStrings entry
// through Save and Load in each record family's free-text fields.
// Invalid UTF-8 comes back as U+FFFD, exactly as encoding/json reads it.
func TestSaveLoadKeepsTrickyStrings(t *testing.T) {
	base := time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	s := New()
	for i, str := range trickyStrings {
		at := base.Add(time.Duration(i) * time.Minute)
		s.AddTweet(TweetRecord{ID: uint64(i + 1), UserID: str, CreatedAt: at, Text: str,
			Platform: platform.Telegram, GroupCode: "g" + str, Source: SourceSearch})
		s.AddControl(ControlRecord{ID: uint64(i + 1), UserID: str, CreatedAt: at})
		s.AddMessage(MessageRecord{Platform: platform.Telegram, GroupCode: "g" + str, AuthorKey: uint64(i), SentAt: at, Text: str})
		s.AddPost(PostRecord{ID: uint64(i + 1), Author: str, CreatedAt: at, Text: str, Platform: platform.Discord, GroupCode: "p" + str})
		s.UpsertUser(UserRecord{Platform: platform.Telegram, Key: uint64(i + 1), PhoneHash: str, Linked: []string{str}})
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	users := map[uint64]*UserRecord{}
	for _, u := range loaded.Users() {
		users[u.Key] = u
	}
	posts := loaded.Posts()
	for i, str := range trickyStrings {
		want := normTimes(str)
		tw, ctl, msg := loaded.Tweets().At(i), loaded.Control().At(i), loaded.Messages().At(i)
		u := users[uint64(i+1)]
		if tw.Text != want || tw.UserID != want || tw.GroupCode != normTimes("g"+str) ||
			ctl.UserID != want || msg.Text != want || posts[i].Text != want || posts[i].Author != want ||
			u == nil || u.PhoneHash != want || len(u.Linked) != 1 || u.Linked[0] != want {
			t.Errorf("%q did not survive Save/Load: tweet %+v control %+v message %+v post %+v user %+v",
				str, tw, ctl, msg, posts[i], u)
		}
		if _, ok := loaded.Group(platform.Telegram, normTimes("g"+str)); !ok {
			t.Errorf("group %q lost", "g"+str)
		}
	}
}
