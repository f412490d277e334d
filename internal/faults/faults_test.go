package faults

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"msgscope/internal/simclock"
)

var t0 = time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)

func TestWindowContainsHalfOpen(t *testing.T) {
	w := Window{From: t0, To: t0.Add(time.Hour)}
	if !w.Contains(t0) {
		t.Error("From should be inside")
	}
	if !w.Contains(t0.Add(59 * time.Minute)) {
		t.Error("interior point should be inside")
	}
	if w.Contains(t0.Add(time.Hour)) {
		t.Error("To should be outside (half-open)")
	}
	if w.Contains(t0.Add(-time.Nanosecond)) {
		t.Error("point before From should be outside")
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if in != NewInjector(nil, simclock.New(t0)) {
		t.Fatal("nil plan must yield nil injector")
	}
	in.NextEpoch()
	if in.Decide("GET /x", 0) != None {
		t.Error("nil injector must decide None")
	}
	if in.Counts().Total() != 0 {
		t.Error("nil injector must count zero")
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/x", nil)
	if in.Intercept(rec, req, "", nil) {
		t.Error("nil injector must not intercept")
	}
}

func TestDecideIsDeterministicPerKeyAttemptEpoch(t *testing.T) {
	mk := func() *Injector {
		return NewInjector(&Plan{Seed: 7, ErrorRate: 0.2, TimeoutRate: 0.1, MalformedRate: 0.1}, simclock.New(t0))
	}
	a, b := mk(), mk()
	keys := []string{"GET /1.1/search/tweets.json?q=a", "POST /api/join", "GET /invite/XYZ j0"}
	for _, k := range keys {
		for attempt := 0; attempt < 5; attempt++ {
			if got, want := a.Decide(k, attempt), b.Decide(k, attempt); got != want {
				t.Fatalf("Decide(%q,%d) nondeterministic: %v vs %v", k, attempt, got, want)
			}
		}
	}
	// Different attempts must be able to draw different outcomes: over many
	// keys, at least one key must have a fault on attempt 0 and None later.
	recovered := 0
	for i := 0; i < 200; i++ {
		k := "GET /probe/" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		if a.Decide(k, 0) != None {
			for attempt := 1; attempt < 4; attempt++ {
				if a.Decide(k, attempt) == None {
					recovered++
					break
				}
			}
		}
	}
	if recovered == 0 {
		t.Error("no faulted key ever recovered on a later attempt; attempt not mixed into draw")
	}
}

func TestEpochChangesDraws(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, ErrorRate: 0.5}, simclock.New(t0))
	const key = "GET /web/abc"
	before := make([]Kind, 50)
	for i := range before {
		before[i] = in.Decide(key, i)
	}
	in.NextEpoch()
	same := 0
	for i := range before {
		if in.Decide(key, i) == before[i] {
			same++
		}
	}
	if same == len(before) {
		t.Error("epoch bump did not change any draw")
	}
}

func TestRateBandsRoughlyCalibrated(t *testing.T) {
	in := NewInjector(&Plan{Seed: 3, ErrorRate: 0.25}, simclock.New(t0))
	hits := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if in.Decide("GET /k/"+strings.Repeat("q", i%13)+string(rune('a'+i%26)), i/26) == ServerError {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("ErrorRate 0.25 drew %.3f over %d trials", frac, n)
	}
}

func TestWindowsOverrideRates(t *testing.T) {
	clock := simclock.New(t0)
	in := NewInjector(&Plan{
		Seed:          9,
		FloodBursts:   []Window{{From: t0.Add(time.Hour), To: t0.Add(2 * time.Hour)}},
		OutageWindows: []Window{{From: t0.Add(90 * time.Minute), To: t0.Add(95 * time.Minute)}},
	}, clock)
	if got := in.Decide("GET /x", 0); got != None {
		t.Fatalf("outside windows: got %v, want None", got)
	}
	clock.Advance(time.Hour)
	if got := in.Decide("GET /x", 0); got != Flood {
		t.Fatalf("inside flood burst: got %v, want Flood", got)
	}
	clock.Advance(30 * time.Minute)
	if got := in.Decide("GET /x", 0); got != Outage {
		t.Fatalf("outage window overlapping flood: got %v, want Outage (outage wins)", got)
	}
	clock.Advance(time.Hour)
	if got := in.Decide("GET /x", 0); got != None {
		t.Fatalf("past both windows: got %v, want None", got)
	}
}

// interceptOn forces a deterministic fault of the wanted kind by scanning
// keys until one draws it.
func interceptOn(t *testing.T, in *Injector, want Kind, acct string, flood func(http.ResponseWriter)) *httptest.ResponseRecorder {
	t.Helper()
	for i := 0; i < 10000; i++ {
		path := "/probe/" + strings.Repeat("z", i%11) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if in.Decide("GET "+path+map[bool]string{true: " " + acct, false: ""}[acct != ""], 0) != want {
			continue
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", path, nil)
		if acct != "" {
			req.Header.Set("X-Acct", acct)
		}
		hdr := ""
		if acct != "" {
			hdr = "X-Acct"
		}
		if !in.Intercept(rec, req, hdr, flood) {
			t.Fatalf("Decide said %v but Intercept declined", want)
		}
		return rec
	}
	t.Fatalf("no key drew %v in 10000 tries", want)
	return nil
}

func TestInterceptResponses(t *testing.T) {
	in := NewInjector(&Plan{Seed: 11, ErrorRate: 0.15, MalformedRate: 0.15}, simclock.New(t0))

	rec := interceptOn(t, in, ServerError, "", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("ServerError wrote %d", rec.Code)
	}

	rec = interceptOn(t, in, Malformed, "acct0", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("Malformed wrote %d", rec.Code)
	}
	if body, _ := io.ReadAll(rec.Result().Body); string(body) != `{"truncated` {
		t.Errorf("Malformed body = %q", body)
	}

	c := in.Counts()
	if c.ServerErrors != 1 || c.Malformed != 1 || c.Total() != 2 {
		t.Errorf("counts = %+v", c)
	}
}

func TestInterceptFloodUsesCallbackOrFallback(t *testing.T) {
	clock := simclock.New(t0)
	in := NewInjector(&Plan{Seed: 2, FloodBursts: []Window{{From: t0, To: t0.Add(time.Hour)}}}, clock)

	// Native callback.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/api/messages", nil)
	called := false
	if !in.Intercept(rec, req, "", func(w http.ResponseWriter) {
		called = true
		w.WriteHeader(420)
		io.WriteString(w, `{"error":"FLOOD_WAIT_30","retry_after":30}`)
	}) {
		t.Fatal("flood burst not intercepted")
	}
	if !called || rec.Code != 420 {
		t.Errorf("native flood callback: called=%v code=%d", called, rec.Code)
	}

	// Generic fallback.
	rec = httptest.NewRecorder()
	if !in.Intercept(rec, httptest.NewRequest("GET", "/other", nil), "", nil) {
		t.Fatal("flood burst not intercepted")
	}
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Errorf("generic flood: code=%d Retry-After=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if in.Counts().Floods != 2 {
		t.Errorf("Floods = %d, want 2", in.Counts().Floods)
	}
}

func TestInterceptOutageAndTimeout(t *testing.T) {
	clock := simclock.New(t0)
	in := NewInjector(&Plan{Seed: 4, OutageWindows: []Window{{From: t0, To: t0.Add(time.Minute)}}}, clock)
	rec := httptest.NewRecorder()
	if !in.Intercept(rec, httptest.NewRequest("GET", "/x", nil), "", nil) {
		t.Fatal("outage not intercepted")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("outage wrote %d", rec.Code)
	}

	clock.Advance(time.Hour)
	in2 := NewInjector(&Plan{Seed: 4, TimeoutRate: 0.3}, clock)
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Errorf("timeout fault panicked with %v, want http.ErrAbortHandler", r)
			}
		}()
		interceptOn(t, in2, Timeout, "", nil)
	}()
	if in2.Counts().Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", in2.Counts().Timeouts)
	}
}

func TestInterceptKeyIncludesAccountHeader(t *testing.T) {
	// Two accounts hitting the same path must draw independent decisions:
	// with ErrorRate 0.5 some account pair must disagree on some path.
	in := NewInjector(&Plan{Seed: 6, ErrorRate: 0.5}, simclock.New(t0))
	disagree := false
	for i := 0; i < 100 && !disagree; i++ {
		path := "GET /invite/" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if in.Decide(path+" j0", 0) != in.Decide(path+" j1", 0) {
			disagree = true
		}
	}
	if !disagree {
		t.Error("account header never changed the decision; key ignores account")
	}
}

func TestMarkSetsAttemptHeader(t *testing.T) {
	req := httptest.NewRequest("GET", "/x", nil)
	Mark(req, 3)
	if got := req.Header.Get(AttemptHeader); got != "3" {
		t.Errorf("attempt header = %q, want 3", got)
	}
}

// TestMissingAttemptHeaderIsAttemptZero: Mark leaves a first attempt
// unstamped, so a request without the header must draw exactly what one
// stamped "0" draws.
func TestMissingAttemptHeaderIsAttemptZero(t *testing.T) {
	plan := &Plan{Seed: 9, ErrorRate: 0.3, MalformedRate: 0.2}
	bare, zero := NewInjector(plan, simclock.New(t0)), NewInjector(plan, simclock.New(t0))
	for i := 0; i < 200; i++ {
		path := "/invite/" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		reqBare := httptest.NewRequest("GET", path, nil)
		Mark(reqBare, 0)
		if h, ok := reqBare.Header[AttemptHeader]; ok {
			t.Fatalf("Mark(req, 0) set the attempt header to %q", h)
		}
		reqZero := httptest.NewRequest("GET", path, nil)
		reqZero.Header.Set(AttemptHeader, "0")
		recBare, recZero := httptest.NewRecorder(), httptest.NewRecorder()
		gotBare, gotZero := bare.Intercept(recBare, reqBare, "", nil), zero.Intercept(recZero, reqZero, "", nil)
		if gotBare != gotZero || recBare.Code != recZero.Code || recBare.Body.String() != recZero.Body.String() {
			t.Fatalf("%s: missing header intercepted=%v (%d %q), \"0\" intercepted=%v (%d %q)", path,
				gotBare, recBare.Code, recBare.Body, gotZero, recZero.Code, recZero.Body)
		}
		if kind := bare.Decide("GET "+path, 0); (kind != None) != gotBare {
			t.Fatalf("%s: Decide(key, 0) = %v but Intercept reported %v", path, kind, gotBare)
		}
	}
	if bare.Counts() != zero.Counts() || bare.Counts().Total() == 0 {
		t.Fatalf("counts %+v vs %+v", bare.Counts(), zero.Counts())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		None: "none", ServerError: "server-error", Timeout: "timeout",
		Malformed: "malformed", Flood: "flood", Outage: "outage", Kind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
