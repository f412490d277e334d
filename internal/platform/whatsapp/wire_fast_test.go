package whatsapp

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"msgscope/internal/ids"
)

func TestAppendMessagesResponseMatchesEncodingJSON(t *testing.T) {
	cases := [][]messageJSON{
		{},
		{
			{Author: "+55 11 91234-0001", UserID: 9, SentMS: 1554087000123, Type: "text", Text: "bom dia <grupo> & \"todos\""},
			{Author: "+91 98765 43210", UserID: 18446744073709551615, SentMS: 0, Type: "url", Text: "https://chat.example/x?a=1&b=2"},
			{Author: "+1 555 0100", UserID: 3, SentMS: -7, Type: "image"},
		},
	}
	for _, msgs := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"messages": msgs}); err != nil {
			t.Fatal(err)
		}
		got := appendMessagesResponse(nil, msgs)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("messages response:\n got %s\nwant %s", got, want.Bytes())
		}
	}
}

func TestParseMessagesRoundTrip(t *testing.T) {
	msgs := []messageJSON{
		{Author: "+55 11 91234-0001", UserID: 9, SentMS: 1554087000123, Type: "text", Text: "oi"},
		{Author: "+55 11 91234-0002", UserID: 10, SentMS: 1554087000456, Type: "join"},
	}
	body := appendMessagesResponse(nil, msgs)
	in := ids.NewInterner()
	got, err := parseMessages(body, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("got %d messages, want %d", len(got), len(msgs))
	}
	for i, m := range got {
		want := Message{
			AuthorPhone: msgs[i].Author,
			UserID:      msgs[i].UserID,
			SentAt:      time.UnixMilli(msgs[i].SentMS).UTC(),
			Type:        msgs[i].Type,
			Text:        msgs[i].Text,
		}
		if m != want {
			t.Errorf("message %d:\n got %+v\nwant %+v", i, m, want)
		}
	}
}

func TestParseMalformedBodies(t *testing.T) {
	in := ids.NewInterner()
	for _, body := range []string{`{"truncated`, `{"messages":[{"author":"x"`, ``, `{"messages":[]} extra`} {
		if _, err := parseMessages([]byte(body), in); err == nil {
			t.Errorf("parseMessages(%q) parsed without error", body)
		}
		if _, err := parseMembers([]byte(body), in); err == nil {
			t.Errorf("parseMembers(%q) parsed without error", body)
		}
	}
	if _, err := parseMembers([]byte(`{"members":[{"phone":"x"`), in); err == nil {
		t.Error("truncated members body parsed without error")
	}
}
