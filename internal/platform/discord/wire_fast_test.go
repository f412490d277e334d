package discord

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/simworld"
)

func TestAppendInviteResponseMatchesEncodingJSON(t *testing.T) {
	g := &simworld.Group{GuildID: 712345678901234567, Title: `Crypto <Signals> & "Friends"`, CreatorIdx: 41}
	for _, withCounts := range []bool{false, true} {
		resp := map[string]any{
			"code": "abc123",
			"guild": map[string]any{
				"id":   strconv.FormatUint(g.GuildID, 10),
				"name": g.Title,
			},
			"inviter": map[string]any{
				"id":       strconv.Itoa(g.CreatorIdx + 1),
				"username": "creator41",
			},
		}
		if withCounts {
			resp["approximate_member_count"] = 512
			resp["approximate_presence_count"] = 37
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := appendInviteResponse(nil, "abc123", g, withCounts, 512, 37)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("with_counts=%v:\n got %s\nwant %s", withCounts, got, want.Bytes())
		}
	}
}

func TestAppendMessageOutMatchesEncodingJSON(t *testing.T) {
	type msgOut struct {
		ID     string `json:"id"`
		Author struct {
			ID       string `json:"id"`
			Username string `json:"username"`
		} `json:"author"`
		Timestamp string `json:"timestamp"`
		MsgType   string `json:"x_type"`
		Content   string `json:"content,omitempty"`
	}
	cases := []struct {
		mid, uid uint64
		username string
		sentAt   time.Time
		msgType  string
		content  string
	}{
		{1, 2, "ana", time.Date(2019, 4, 1, 13, 37, 42, 0, time.UTC), "text", "hello <all> & \"co\""},
		{18446744073709551615, 3, "bob", time.Date(2020, 12, 31, 23, 59, 59, 123000000, time.UTC), "url", "https://x.y/z?a=1&b=2"},
		{7, 8, "cleo", time.Date(2019, 6, 15, 0, 0, 0, 987654321, time.UTC), "image", ""},
		{9, 10, "dan", time.Date(2019, 6, 15, 6, 30, 0, 100, time.UTC), "text", "tiny frac"},
	}
	for _, tc := range cases {
		var m msgOut
		m.ID = strconv.FormatUint(tc.mid, 10)
		m.Author.ID = strconv.FormatUint(tc.uid, 10)
		m.Author.Username = tc.username
		m.Timestamp = tc.sentAt.Format(time.RFC3339Nano)
		m.MsgType = tc.msgType
		m.Content = tc.content
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got := appendMessageOut(nil, tc.mid, tc.uid, tc.username, tc.sentAt, tc.msgType, tc.content)
		if !bytes.Equal(got, want) {
			t.Errorf("message %d:\n got %s\nwant %s", tc.mid, got, want)
		}
	}
}

func TestAppendRFC3339NanoMatchesFormat(t *testing.T) {
	times := []time.Time{
		time.Date(2019, 4, 1, 13, 37, 42, 0, time.UTC),
		time.Date(2019, 4, 1, 13, 37, 42, 500000000, time.UTC),
		time.Date(2019, 4, 1, 13, 37, 42, 1, time.UTC),
		time.Date(999, 1, 1, 0, 0, 0, 0, time.UTC), // 3-digit year: fallback path
		time.Date(2019, 4, 1, 13, 37, 42, 0, time.FixedZone("X", 5*3600)),
	}
	for _, at := range times {
		want := `"` + at.Format(time.RFC3339Nano) + `"`
		if got := appendRFC3339Nano(nil, at); string(got) != want {
			t.Errorf("appendRFC3339Nano(%v) = %s, want %s", at, got, want)
		}
	}
}

func TestParseMessagePageRoundTrip(t *testing.T) {
	sent := time.Date(2019, 4, 1, 13, 37, 42, 123000000, time.UTC)
	body := append(appendMessageOut([]byte(`[`), 101, 202, "ana", sent, "text", "oi"), ',')
	body = append(appendMessageOut(body, 103, 204, "bob", sent.Add(time.Second), "join", ""), ']', '\n')
	in := ids.NewInterner()
	got, count, err := parseMessagePage(nil, body, in)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 || len(got) != 2 {
		t.Fatalf("count=%d len=%d", count, len(got))
	}
	want := []Message{
		{ID: 101, AuthorID: 202, Author: "ana", SentAt: sent, Type: "text", Content: "oi"},
		{ID: 103, AuthorID: 204, Author: "bob", SentAt: sent.Add(time.Second), Type: "join"},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("message %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// A null page (nil slice server-side) is zero messages.
	if msgs, count, err := parseMessagePage(nil, []byte("null\n"), in); err != nil || count != 0 || msgs != nil {
		t.Fatalf("null page: msgs=%v count=%d err=%v", msgs, count, err)
	}
}

func TestParseMessagePageMalformed(t *testing.T) {
	in := ids.NewInterner()
	for _, body := range []string{`{"truncated`, `[{"id":"1"`, `[] extra`, ``, `[{"id":"x"}]`} {
		if _, _, err := parseMessagePage(nil, []byte(body), in); err == nil {
			t.Errorf("body %q parsed without error", body)
		}
	}
}

func TestParseRFC3339Fallbacks(t *testing.T) {
	for _, s := range []string{
		"2019-04-01T13:37:42Z",
		"2019-04-01T13:37:42.5Z",
		"2019-04-01T13:37:42.000000001Z",
		"2019-04-01T13:37:42+05:30",
	} {
		want, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseRFC3339([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("parseRFC3339(%s) = %v, want %v", s, got, want)
		}
	}
	if _, err := parseRFC3339([]byte("garbage")); err == nil {
		t.Error("garbage timestamp accepted")
	}
}

// TestParseMessagePageAllocs bounds decoding a full page into a warm page
// buffer with a warm interner and empty contents: IDs, times and types
// decode in place and the page slice is reused, so nothing is allocated.
func TestParseMessagePageAllocs(t *testing.T) {
	sent := time.Date(2020, 4, 8, 13, 37, 42, 123000000, time.UTC)
	body := []byte{'['}
	for i := 0; i < 100; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendMessageOut(body, uint64(900000-i), uint64(i%9), "user"+strconv.Itoa(i%9), sent.Add(-time.Duration(i)*time.Minute), "text", "")
	}
	body = append(body, ']', '\n')
	in := ids.NewInterner()
	page, count, err := parseMessagePage(nil, body, in)
	if err != nil || count != 100 {
		t.Fatalf("warm-up: count %d, err %v", count, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		page, _, _ = parseMessagePage(page[:0], body, in)
	})
	if allocs > 0 {
		t.Errorf("decoding a 100-message page allocated %.1f objects/op, want 0", allocs)
	}
}
