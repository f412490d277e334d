package jsonx

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAppendStringMatchesEncodingJSON proves the append encoder is
// byte-identical to encoding/json's default (HTML-escaping) string
// encoder across representative and adversarial inputs.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		"",
		"plain ascii words",
		`quote " backslash \ slash /`,
		"tabs\tnewlines\ncarriage\rreturns",
		"control \x00 \x01 \x1f chars",
		"html <b>&amp;</b> specials",
		"unicode: héllo wörld ☺ 日本語",
		"line sep \u2028 para sep \u2029 end",
		"invalid utf8: \xff\xfe ok",
		"mixed < \xffX> tail",
		strings.Repeat("a", 300),
		"https://t.me/joinchat/AbCd_123?x=1&y=<2>",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		got := AppendString(nil, s)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q)\n got %s\nwant %s", s, got, want)
		}
	}
}

func TestAppendNumbers(t *testing.T) {
	if got := string(AppendUint(nil, 18446744073709551615)); got != "18446744073709551615" {
		t.Errorf("AppendUint = %s", got)
	}
	if got := string(AppendInt(nil, -42)); got != "-42" {
		t.Errorf("AppendInt = %s", got)
	}
}

// TestDecRoundTrip decodes a document produced by encoding/json and
// checks every field arrives intact.
func TestDecRoundTrip(t *testing.T) {
	type inner struct {
		Name string `json:"name"`
		N    int64  `json:"n"`
	}
	doc := struct {
		ID    uint64   `json:"id"`
		Text  string   `json:"text"`
		Flag  bool     `json:"flag"`
		Tags  []string `json:"tags"`
		Sub   inner    `json:"sub"`
		Extra any      `json:"extra"`
	}{
		ID:   9007199254740993,
		Text: "body with \"escapes\" and   and ünicode",
		Flag: true,
		Tags: []string{"a", "b<c>", ""},
		Sub:  inner{Name: "x&y", N: -77},
		Extra: map[string]any{
			"nested": []any{1.5, nil, true, "s"},
		},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	var d Dec
	d.Reset(raw)
	var (
		id       uint64
		text     string
		flag     bool
		tags     []string
		subName  string
		subN     int64
		sawExtra bool
	)
	err = d.Obj(func(key []byte) error {
		switch string(key) {
		case "id":
			var e error
			id, e = d.Uint()
			return e
		case "text":
			var e error
			text, e = d.Str()
			return e
		case "flag":
			var e error
			flag, e = d.Bool()
			return e
		case "tags":
			return d.Arr(func() error {
				s, e := d.Str()
				tags = append(tags, s)
				return e
			})
		case "sub":
			return d.Obj(func(k2 []byte) error {
				switch string(k2) {
				case "name":
					var e error
					subName, e = d.Str()
					return e
				case "n":
					var e error
					subN, e = d.Int()
					return e
				}
				return d.Skip()
			})
		case "extra":
			sawExtra = true
			return d.Skip()
		}
		return d.Skip()
	})
	if err != nil {
		t.Fatalf("Obj: %v", err)
	}
	if err := d.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	if id != doc.ID || text != doc.Text || flag != doc.Flag {
		t.Errorf("scalars: id=%d text=%q flag=%v", id, text, flag)
	}
	if len(tags) != 3 || tags[1] != "b<c>" {
		t.Errorf("tags = %q", tags)
	}
	if subName != "x&y" || subN != -77 {
		t.Errorf("sub = %q %d", subName, subN)
	}
	if !sawExtra {
		t.Error("extra not visited")
	}
}

// TestDecMalformed feeds the decoder the same shapes the fault injector
// produces (truncated bodies) plus assorted garbage: every one must
// return an error, never panic or succeed.
func TestDecMalformed(t *testing.T) {
	cases := []string{
		`{"truncated`, // exactly what faults.Malformed writes
		``,
		`{`,
		`{"a"`,
		`{"a":`,
		`{"a":1`,
		`{"a":1,`,
		`[1,2`,
		`[1,,2]`,
		`{"a":1}trailing`,
		`"unterminated`,
		`"bad \q escape"`,
		`{"a":tru}`,
		`{"a":nul}`,
		`{"a":--1}`,
		`{"a":1e}`,
		`{1:2}`,
		`{"a":1 "b":2}`,
	}
	for _, in := range cases {
		var d Dec
		d.Reset([]byte(in))
		if err := d.Skip(); err == nil {
			if err2 := d.End(); err2 == nil {
				t.Errorf("input %q: decoded without error", in)
			}
		}
	}
}

// TestDecEscapes covers the slow unescape path, including surrogate
// pairs and lone surrogates.
func TestDecEscapes(t *testing.T) {
	cases := map[string]string{
		`"a\nb\tc\\d\"e\/f"`: "a\nb\tc\\d\"e/f",
		`"\u0041\u00e9"`:     "A\u00e9",
		`"\ud83d\ude00"`:     "\U0001f600",
		`"\ud83d"`:           "\ufffd",
		`"\u2028"`:           "\u2028",
		`"pre\b\fpost"`:      "pre\b\fpost",
	}
	for in, want := range cases {
		var d Dec
		d.Reset([]byte(in))
		got, err := d.Str()
		if err != nil {
			t.Errorf("Str(%s): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Str(%s) = %q, want %q", in, got, want)
		}
	}
}

func TestReadInto(t *testing.T) {
	bp := GetBuf()
	defer PutBuf(bp)
	payload := strings.Repeat("xyz", 5000)
	got, err := ReadInto(bp, strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("ReadInto: %d bytes, want %d", len(got), len(payload))
	}
	// Reuse: the second read must reuse the grown buffer.
	got2, err := ReadInto(bp, strings.NewReader("short"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got2) != "short" {
		t.Fatalf("ReadInto reuse: %q", got2)
	}
}

// TestUintNoAlloc pins the hot integer decode to zero allocations.
func TestUintNoAlloc(t *testing.T) {
	in := []byte(`1234567890123456789`)
	var d Dec
	allocs := testing.AllocsPerRun(200, func() {
		d.Reset(in)
		if _, err := d.Uint(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Uint allocates %.1f times per run, want 0", allocs)
	}
}
