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

func TestAppendParticipantsResponseMatchesEncodingJSON(t *testing.T) {
	cases := [][]userJSON{
		{},
		{{ID: 1, Name: "ana maria"}, {ID: 2, Name: "joão", Phone: "+55 11 91234-0001"}},
	}
	for _, users := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"participants": users}); err != nil {
			t.Fatal(err)
		}
		got := appendParticipantsResponse(nil, users)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("participants response:\n got %s\nwant %s", got, want.Bytes())
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
	got, next, err := parseHistoryPage(body, in)
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
	if _, next, err = parseHistoryPage(body, in); err != nil || next != 0 {
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
		if _, _, err := parseHistoryPage([]byte(body), in); err == nil {
			t.Errorf("body %q parsed without error", body)
		}
	}
}
