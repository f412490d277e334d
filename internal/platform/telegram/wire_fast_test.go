package telegram

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"msgscope/internal/ids"
)

// messageJSON is the wire shape of one history message, as encoding/json
// renders it: the reference the append encoders are held to.
type messageJSON struct {
	FromID uint64 `json:"from_id"`
	DateMS int64  `json:"date_ms"`
	Type   string `json:"type"`
	Text   string `json:"text,omitempty"`
}

// appendHistoryResponse renders a whole history page through the
// service's append encoders, exactly as handleHistory composes them.
func appendHistoryResponse(dst []byte, msgs []messageJSON, next int64, hasNext bool) []byte {
	dst = append(dst, historyOpen...)
	for i, m := range msgs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendHistoryMessage(dst, m.FromID, m.DateMS, m.Type, m.Text)
	}
	return appendHistoryEnd(dst, next, hasNext)
}

// TestAppendHistoryResponseMatchesEncodingJSON holds the append encoder
// byte-identical to the json.NewEncoder rendering of the former
// map[string]any response shape.
func TestAppendHistoryResponseMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		msgs    []messageJSON
		next    int64
		hasNext bool
	}{
		{msgs: []messageJSON{}},
		{msgs: []messageJSON{
			{FromID: 1, DateMS: 1554087000123, Type: "text", Text: "hello <world> & \"co\""},
			{FromID: 18446744073709551615, DateMS: 0, Type: "url", Text: "https://t.me/x?a=1&b=2"},
			{FromID: 7, DateMS: -12, Type: "join"},
		}},
		{msgs: []messageJSON{{FromID: 2, DateMS: 5, Type: "text", Text: "tab\there"}}, next: 1554000000000, hasNext: true},
	}
	for _, tc := range cases {
		resp := map[string]any{"messages": tc.msgs}
		if tc.hasNext {
			resp["next_offset_date_ms"] = tc.next
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := appendHistoryResponse(nil, tc.msgs, tc.next, tc.hasNext)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("history response:\n got %s\nwant %s", got, want.Bytes())
		}
	}
}

// TestParseHistoryPageRoundTrip runs the fast client parser over the
// fast service encoder's output and checks the decoded messages match.
func TestParseHistoryPageRoundTrip(t *testing.T) {
	msgs := []messageJSON{
		{FromID: 42, DateMS: 1554087000123, Type: "text", Text: "oi pessoal"},
		{FromID: 43, DateMS: 1554087000456, Type: "url", Text: "http://a.b/c"},
		{FromID: 44, DateMS: 1554087000789, Type: "join"},
	}
	body := appendHistoryResponse(nil, msgs, 1554000000000, true)
	in := ids.NewInterner()
	got, next, err := parseHistoryPage(nil, body, in)
	if err != nil {
		t.Fatal(err)
	}
	if next != 1554000000000 {
		t.Fatalf("next = %d", next)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d messages, want %d", len(got), len(msgs))
	}
	for i, m := range got {
		want := Message{
			FromID: msgs[i].FromID,
			SentAt: time.UnixMilli(msgs[i].DateMS).UTC(),
			Type:   msgs[i].Type,
			Text:   msgs[i].Text,
		}
		if m != want {
			t.Errorf("message %d:\n got %+v\nwant %+v", i, m, want)
		}
	}
	// Last page: no next_offset_date_ms.
	body = appendHistoryResponse(nil, msgs[:1], 0, false)
	if _, next, err = parseHistoryPage(nil, body, in); err != nil || next != 0 {
		t.Fatalf("last page: next=%d err=%v", next, err)
	}
}

// TestParseHistoryPageMalformed: the fault injector's truncated bodies
// must surface as errors so the retry layer re-fetches.
func TestParseHistoryPageMalformed(t *testing.T) {
	in := ids.NewInterner()
	for _, body := range []string{
		`{"truncated`,
		`{"messages":[{"from_id":1`,
		`{"messages":[]} extra`,
		``,
	} {
		if _, _, err := parseHistoryPage(nil, []byte(body), in); err == nil {
			t.Errorf("body %q parsed without error", body)
		}
	}
}

// TestParseHistoryPageAllocs bounds decoding a full page into a warm page
// buffer with a warm interner and empty texts: IDs, times and types
// decode in place and the page slice is reused, so nothing is allocated.
func TestParseHistoryPageAllocs(t *testing.T) {
	msgs := make([]messageJSON, 100)
	for i := range msgs {
		msgs[i] = messageJSON{FromID: uint64(1000 + i%9), DateMS: 1586350000000 - int64(i)*60000, Type: "text"}
	}
	body := appendHistoryResponse(nil, msgs, 1586340000000, true)
	in := ids.NewInterner()
	page, _, err := parseHistoryPage(nil, body, in)
	if err != nil || len(page) != 100 {
		t.Fatalf("warm-up: %d messages, err %v", len(page), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		page, _, _ = parseHistoryPage(page[:0], body, in)
	})
	if allocs > 0 {
		t.Errorf("decoding a 100-message page allocated %.1f objects/op, want 0", allocs)
	}
}
