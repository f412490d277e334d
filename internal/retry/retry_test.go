package retry

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"testing"
	"time"

	"msgscope/internal/simclock"
)

var t0 = time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)

func TestDoSucceedsFirstTry(t *testing.T) {
	p := New(1)
	calls := 0
	if err := p.Do("GET /ok", func(int) Outcome { calls++; return Ok() }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	s := p.Stats()
	if s.Attempts != 1 || s.Retries != 0 || s.Exhausted != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDoRetriesTransientThenSucceeds(t *testing.T) {
	p := New(1)
	calls := 0
	err := p.Do("GET /flaky", func(attempt int) Outcome {
		if attempt != calls {
			t.Errorf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return Retry(errors.New("boom"))
		}
		return Ok()
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if s := p.Stats(); s.Retries != 2 {
		t.Errorf("Retries = %d, want 2", s.Retries)
	}
}

func TestDoExhaustsTransientBudget(t *testing.T) {
	p := New(1)
	boom := errors.New("permanent 500")
	calls := 0
	err := p.Do("GET /dead", func(int) Outcome { calls++; return Retry(boom) })
	if calls != p.MaxAttempts {
		t.Errorf("calls = %d, want %d", calls, p.MaxAttempts)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Errorf("err %v does not wrap ErrExhausted", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err %v does not wrap the platform error", err)
	}
	if s := p.Stats(); s.Exhausted != 1 {
		t.Errorf("Exhausted = %d, want 1", s.Exhausted)
	}
}

func TestDoFatalStopsImmediately(t *testing.T) {
	p := New(1)
	dead := errors.New("invite revoked")
	calls := 0
	err := p.Do("GET /gone", func(int) Outcome { calls++; return Fail(dead) })
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, dead) || errors.Is(err, ErrExhausted) {
		t.Errorf("err = %v", err)
	}
}

func TestDoThrottleWaitsAndRetries(t *testing.T) {
	p := New(1)
	w := &TallyWaiter{}
	p.Waiter = w
	floods := 0
	err := p.Do("POST /join", func(int) Outcome {
		if floods < 2 {
			floods++
			return Throttled(30*time.Second, errors.New("FLOOD_WAIT_30"))
		}
		return Ok()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Throttles != 2 {
		t.Errorf("Throttles = %d, want 2", s.Throttles)
	}
	// Each wait is RetryAfter + BaseDelay pad.
	if want := 2 * (30*time.Second + p.BaseDelay); w.Total() != want {
		t.Errorf("waited %v, want %v", w.Total(), want)
	}
	if w.Waits() != 2 {
		t.Errorf("Waits = %d, want 2", w.Waits())
	}
}

func TestDoThrottleExhaustsMaxWaits(t *testing.T) {
	p := New(1)
	p.MaxWaits = 3
	flood := errors.New("still flooded")
	calls := 0
	err := p.Do("GET /burst", func(int) Outcome { calls++; return Throttled(time.Second, flood) })
	if calls != p.MaxWaits+1 {
		t.Errorf("calls = %d, want %d", calls, p.MaxWaits+1)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, flood) {
		t.Errorf("err = %v", err)
	}
}

func TestDoThrottleZeroRetryAfterUsesBaseDelay(t *testing.T) {
	p := New(1)
	w := &TallyWaiter{}
	p.Waiter = w
	first := true
	if err := p.Do("GET /x", func(int) Outcome {
		if first {
			first = false
			return Throttled(0, errors.New("429 no header"))
		}
		return Ok()
	}); err != nil {
		t.Fatal(err)
	}
	if want := p.BaseDelay + p.BaseDelay; w.Total() != want {
		t.Errorf("waited %v, want %v", w.Total(), want)
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := New(42)
	for attempt := 1; attempt <= 10; attempt++ {
		d := p.BaseDelay
		for i := 1; i < attempt && d < p.MaxDelay; i++ {
			d *= 2
		}
		if d > p.MaxDelay {
			d = p.MaxDelay
		}
		got := p.Backoff("GET /k", attempt)
		if got < d/2 || got >= d {
			t.Errorf("attempt %d: backoff %v outside [%v,%v)", attempt, got, d/2, d)
		}
		if got != p.Backoff("GET /k", attempt) {
			t.Errorf("attempt %d: backoff not deterministic", attempt)
		}
	}
	// Different keys and seeds decorrelate.
	if p.Backoff("GET /a", 1) == p.Backoff("GET /b", 1) && p.Backoff("GET /a", 2) == p.Backoff("GET /b", 2) {
		t.Error("jitter identical across keys on consecutive attempts")
	}
	q := New(43)
	if p.Backoff("GET /a", 1) == q.Backoff("GET /a", 1) && p.Backoff("GET /a", 2) == q.Backoff("GET /a", 2) {
		t.Error("jitter identical across seeds on consecutive attempts")
	}
}

func TestAdvanceWaiterAdvancesSimClock(t *testing.T) {
	clock := simclock.New(t0)
	w := AdvanceWaiter{Clock: clock}
	w.Wait(90 * time.Second)
	if got := clock.Now(); !got.Equal(t0.Add(90 * time.Second)) {
		t.Errorf("clock = %v, want +90s", got)
	}
	w.Wait(0) // must not panic (Sim panics on non-positive Advance)
	w.Wait(-time.Second)
	if got := clock.Now(); !got.Equal(t0.Add(90 * time.Second)) {
		t.Errorf("clock moved on non-positive wait: %v", got)
	}
}

func TestBreakerOpensDelaysAndCloses(t *testing.T) {
	b := NewBreaker(3, 30*time.Second)
	p := New(1)
	p.Breaker = b
	w := &TallyWaiter{}
	p.Waiter = w

	boom := errors.New("down")
	// 3 transient failures in one call open the breaker (MaxAttempts 4).
	p.MaxAttempts = 4
	if err := p.Do("GET /down", func(attempt int) Outcome {
		if attempt < 3 {
			return Retry(boom)
		}
		return Ok()
	}); err != nil {
		t.Fatal(err)
	}
	if b.Opens() != 1 {
		t.Fatalf("Opens = %d, want 1", b.Opens())
	}
	// The final (successful) attempt ran while open, so it paid the
	// cooldown delay, then closed the breaker.
	if b.Closes() != 1 {
		t.Errorf("Closes = %d, want 1", b.Closes())
	}
	if b.delay() != 0 {
		t.Error("breaker still delaying after close")
	}
	var sawCooldown bool
	// TallyWaiter recorded backoffs + one 30s cooldown; the cooldown is the
	// only wait ≥ 30s (backoffs cap at BaseDelay*4 = 2s here).
	if w.Total() >= 30*time.Second {
		sawCooldown = true
	}
	if !sawCooldown {
		t.Errorf("no cooldown delay observed; total waited %v", w.Total())
	}
}

func TestBreakerResetClosesWithoutCountingClose(t *testing.T) {
	b := NewBreaker(2, time.Minute)
	b.record(false)
	b.record(false)
	if b.Opens() != 1 || b.delay() != time.Minute {
		t.Fatalf("breaker should be open: opens=%d delay=%v", b.Opens(), b.delay())
	}
	b.Reset()
	if b.delay() != 0 {
		t.Error("Reset left breaker open")
	}
	if b.Closes() != 0 {
		t.Error("Reset must not count as a close transition")
	}
	// Streak cleared: one more failure must not reopen.
	b.record(false)
	if b.Opens() != 1 {
		t.Error("single failure after Reset reopened breaker")
	}
}

func TestNilBreakerSafe(t *testing.T) {
	var b *Breaker
	if b.delay() != 0 {
		t.Error("nil delay")
	}
	b.record(true)
	b.record(false)
	b.Reset()
	if b.Opens() != 0 || b.Closes() != 0 {
		t.Error("nil counters")
	}
}

func TestBreakerSuccessClearsStreak(t *testing.T) {
	b := NewBreaker(3, time.Second)
	b.record(false)
	b.record(false)
	b.record(true)
	b.record(false)
	b.record(false)
	if b.Opens() != 0 {
		t.Error("success did not clear the consecutive-failure streak")
	}
}

func TestDoInvalidOutcomeClass(t *testing.T) {
	p := New(1)
	err := p.Do("GET /bad", func(int) Outcome { return Outcome{Class: Class(42)} })
	if err == nil {
		t.Fatal("want error for invalid class")
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		v    string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"1.5", 1500 * time.Millisecond},
		{"-3", 0},
		{"soon", 0},
	} {
		h := http.Header{}
		if tc.v != "" {
			h.Set("Retry-After", tc.v)
		}
		if got := ParseRetryAfter(h); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestStatsCountAcrossCalls(t *testing.T) {
	p := New(9)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("GET /n/%d", i)
		_ = p.Do(key, func(attempt int) Outcome {
			if attempt == 0 && i%2 == 0 {
				return Retry(errors.New("transient"))
			}
			return Ok()
		})
	}
	s := p.Stats()
	if s.Retries != 3 {
		t.Errorf("Retries = %d, want 3", s.Retries)
	}
	if s.Attempts != 8 {
		t.Errorf("Attempts = %d, want 8", s.Attempts)
	}
}

// TestAccountSeedIsFNV1a pins AccountSeed to 64-bit FNV-1a, the hash every
// platform client has always seeded its retry jitter with.
func TestAccountSeedIsFNV1a(t *testing.T) {
	for _, account := range []string{"", "acct", "wa-0", "tg-12", "bot:collector", "dc-user-7"} {
		h := fnv.New64a()
		h.Write([]byte(account))
		if got, want := AccountSeed(account), h.Sum64(); got != want {
			t.Errorf("AccountSeed(%q) = %#x, want %#x", account, got, want)
		}
	}
}
