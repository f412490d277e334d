package twitter

import (
	"bytes"
	"encoding/json"
	"net/url"
	"strconv"
	"testing"
	"time"

	"msgscope/internal/ids"
	"msgscope/internal/jsonx"
	"msgscope/internal/simworld"
)

// worldTweets gathers a representative corpus straight from a generated
// world: every tweet the service could ever serve flows from here, so
// holding the fast encoder equal to encoding/json over this corpus (plus
// the synthetic edge cases) holds the wire format fixed.
func worldTweets(t *testing.T) []*simworld.Tweet {
	t.Helper()
	w := simworld.New(simworld.DefaultConfig(7, 0.02))
	var all []*simworld.Tweet
	for _, day := range w.TweetsByDay {
		all = append(all, day...)
	}
	for _, day := range w.ControlByDay {
		all = append(all, day...)
	}
	if len(all) < 100 {
		t.Fatalf("world too small: %d tweets", len(all))
	}
	return all
}

func syntheticTweets() []*simworld.Tweet {
	at := time.Date(2019, 4, 1, 13, 37, 42, 0, time.UTC)
	return []*simworld.Tweet{
		{ID: 1, CreatedAt: at, Text: "", Lang: "en", AuthorID: "u1"},
		{ID: 18446744073709551615, CreatedAt: at, Text: "#only #tags", Lang: "es", AuthorID: "u2"},
		{ID: 3, CreatedAt: at, Text: "@m1: @m2 mixed #t http://a.b/c?d=e&f=<g>", Lang: "pt", AuthorID: "u3", Retweet: true},
		{ID: 4, CreatedAt: at.In(time.FixedZone("X", -3*3600-1800)), Text: "RT @x: body", Lang: "en", AuthorID: "u4", Retweet: true},
		{ID: 5, CreatedAt: at, Text: "  leading  and   trailing  ", Lang: "en", AuthorID: "u5"},
		{ID: 6, CreatedAt: at, Text: "# @ bare sigils", Lang: "en", AuthorID: "u6"},
		{ID: 7, CreatedAt: at, Text: "quote \" and \\ backslash\ttab", Lang: "en", AuthorID: "u7"},
	}
}

// TestAppendTweetMatchesEncodingJSON holds the fast encoder
// byte-identical to json.Marshal over the wire.go structs.
func TestAppendTweetMatchesEncodingJSON(t *testing.T) {
	tweets := append(worldTweets(t), syntheticTweets()...)
	var buf []byte
	for _, tw := range tweets {
		want, err := json.Marshal(encodeTweet(tw))
		if err != nil {
			t.Fatal(err)
		}
		buf = appendTweet(buf[:0], tw)
		if !bytes.Equal(buf, want) {
			t.Fatalf("tweet %d:\n got %s\nwant %s", tw.ID, buf, want)
		}
	}
}

// TestParseStatusMatchesDecodeStatus holds the fast parser equal to the
// encoding/json + decodeStatus pipeline over the same corpus.
func TestParseStatusMatchesDecodeStatus(t *testing.T) {
	tweets := append(worldTweets(t), syntheticTweets()...)
	in := ids.NewInterner()
	var d jsonx.Dec
	for _, tw := range tweets {
		raw, err := json.Marshal(encodeTweet(tw))
		if err != nil {
			t.Fatal(err)
		}
		var j tweetJSON
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		want, err := decodeStatus(j)
		if err != nil {
			t.Fatal(err)
		}
		d.Reset(raw)
		got, err := parseStatus(&d, in)
		if err != nil {
			t.Fatalf("parseStatus(%s): %v", raw, err)
		}
		if err := d.End(); err != nil {
			t.Fatalf("trailing data after %s: %v", raw, err)
		}
		if got != want {
			t.Fatalf("tweet %d:\n got %+v\nwant %+v", tw.ID, got, want)
		}
	}
}

func TestParseCreatedAtRoundTrip(t *testing.T) {
	times := []time.Time{
		time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(2019, 6, 15, 12, 30, 45, 0, time.FixedZone("E", 5*3600+1800)),
		time.Date(2019, 6, 15, 12, 30, 45, 0, time.FixedZone("W", -7*3600)),
	}
	for _, at := range times {
		wire := appendCreatedAt(nil, at)
		if want := at.Format(createdAtFormat); string(wire) != want {
			t.Fatalf("appendCreatedAt = %q, want %q", wire, want)
		}
		got, err := parseCreatedAt(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(at) {
			t.Fatalf("parseCreatedAt(%s) = %v, want %v", wire, got, at)
		}
		if got.Location() != time.UTC {
			t.Fatalf("parseCreatedAt(%s) not UTC-normalized", wire)
		}
	}
	if _, err := parseCreatedAt([]byte("not a timestamp, wrong")); err == nil {
		t.Fatal("garbage timestamp accepted")
	}
}

// TestParseSearchStatusesMalformed: truncated bodies (the fault
// injector's signature) must error, not hang or succeed.
func TestParseSearchStatusesMalformed(t *testing.T) {
	in := ids.NewInterner()
	for _, body := range []string{
		`{"truncated`,
		`{"statuses":[{"id":1`,
		`{"statuses":[]}, trailing`,
		``,
	} {
		if _, _, err := parseSearchStatuses([]byte(body), nil, in); err == nil {
			t.Errorf("body %q parsed without error", body)
		}
	}
}

func TestParseSearchStatusesNextResults(t *testing.T) {
	in := ids.NewInterner()
	body := []byte(`{"statuses":[],"search_metadata":{"next_results":"?max_id=9&q=x","max_id_str":"9"}}` + "\n")
	sts, next, err := parseSearchStatuses(body, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 0 || next != "?max_id=9&q=x" {
		t.Fatalf("got %d statuses, next %q", len(sts), next)
	}
}

// referenceSearchBody renders a search page through encoding/json and the
// wire.go structs, the shape handleSearch's append encoder must produce
// byte for byte.
func referenceSearchBody(t *testing.T, page []*simworld.Tweet, nextMax uint64, q string) []byte {
	t.Helper()
	resp := searchResponse{Statuses: []tweetJSON{}}
	for _, tw := range page {
		resp.Statuses = append(resp.Statuses, encodeTweet(tw))
	}
	if nextMax != 0 {
		resp.SearchMetadata.NextResults = "?max_id=" + strconv.FormatUint(nextMax, 10) + "&q=" + url.QueryEscape(q)
		resp.SearchMetadata.MaxIDStr = strconv.FormatUint(nextMax, 10)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
