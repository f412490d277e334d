// Package retry is the one retry/backoff policy shared by every platform
// client in the pipeline: capped exponential backoff with deterministic
// jitter, Retry-After honoring for rate limits, an optional per-host
// circuit breaker, and waits that go through the virtual clock (or a
// tally) so no retry path ever sleeps wall-clock time.
//
// Jitter is drawn from a hash of (policy seed, request key, attempt)
// rather than a shared RNG stream: concurrent workers retrying different
// requests would otherwise interleave draws nondeterministically, and
// jittered waits advance the shared virtual clock during the join phase,
// where the clock is data-visible. Request keys must never include the
// host (test servers bind random ports).
package retry

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"msgscope/internal/simclock"
)

// ErrExhausted marks an error returned after the retry budget ran out.
// The platform error is wrapped alongside it, so errors.Is matches both.
var ErrExhausted = errors.New("retry: budget exhausted")

// Class classifies one attempt's outcome.
type Class int

// Outcome classes.
const (
	// Success: the operation completed; stop.
	Success Class = iota
	// Transient: a retryable failure (5xx, transport error, malformed
	// body); back off and retry up to MaxAttempts.
	Transient
	// Throttle: a rate-limit response; wait out RetryAfter (plus a pad)
	// and retry up to MaxWaits. Throttles do not consume attempts — a
	// flood burst is not a server failure.
	Throttle
	// Fatal: a definitive answer (dead invite, auth failure); stop
	// immediately and surface the error.
	Fatal
)

// Outcome is one attempt's result.
type Outcome struct {
	Class      Class
	Err        error
	RetryAfter time.Duration // Throttle only; 0 = unknown
}

// Ok reports a successful attempt.
func Ok() Outcome { return Outcome{Class: Success} }

// Retry reports a transient failure.
func Retry(err error) Outcome { return Outcome{Class: Transient, Err: err} }

// Throttled reports a rate-limit with the advertised wait.
func Throttled(after time.Duration, err error) Outcome {
	return Outcome{Class: Throttle, Err: err, RetryAfter: after}
}

// Fail reports a permanent failure.
func Fail(err error) Outcome { return Outcome{Class: Fatal, Err: err} }

// Waiter absorbs retry waits. Implementations either advance the virtual
// clock (join/collect phases, where waiting out a flood is part of the
// methodology) or just tally the wait (search/monitor phases, where the
// driver owns the clock and a mid-phase advance would shift data-visible
// horizons).
type Waiter interface {
	Wait(d time.Duration)
}

// AdvanceWaiter advances a simulated clock by each wait — the virtual
// analogue of sleeping.
type AdvanceWaiter struct {
	Clock *simclock.Sim
}

// Wait advances the clock by d.
func (w AdvanceWaiter) Wait(d time.Duration) {
	if d > 0 {
		w.Clock.Advance(d)
	}
}

// TallyWaiter counts waits without letting time pass. It is the default:
// phases that must not move the clock still record how long they would
// have waited.
type TallyWaiter struct {
	n     atomic.Int64
	total atomic.Int64
}

// Wait records d.
func (w *TallyWaiter) Wait(d time.Duration) {
	w.n.Add(1)
	w.total.Add(int64(d))
}

// Waits returns how many waits were absorbed.
func (w *TallyWaiter) Waits() int64 { return w.n.Load() }

// Total returns the summed durations absorbed.
func (w *TallyWaiter) Total() time.Duration { return time.Duration(w.total.Load()) }

// Breaker is a per-host circuit breaker shared by every client of one
// service. It never rejects a request — rejection would make outcomes
// depend on which worker tripped it first — it only *delays*: while open,
// each attempt first waits Cooldown (through the policy's Waiter), which
// in clock-advancing phases fast-forwards past the trouble.
type Breaker struct {
	Threshold int           // consecutive failures that open the breaker
	Cooldown  time.Duration // delay per attempt while open

	mu     sync.Mutex
	consec int
	open   bool
	opens  atomic.Int64
	closes atomic.Int64
}

// NewBreaker returns a breaker opening after threshold consecutive
// failures and delaying cooldown per attempt until a success closes it.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{Threshold: threshold, Cooldown: cooldown}
}

// delay returns how long the next attempt must wait before running.
func (b *Breaker) delay() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		return b.Cooldown
	}
	return 0
}

// record feeds one attempt's result into the breaker state.
func (b *Breaker) record(ok bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.open {
			b.open = false
			b.closes.Add(1)
		}
		b.consec = 0
		return
	}
	b.consec++
	if !b.open && b.consec >= b.Threshold {
		b.open = true
		b.opens.Add(1)
	}
}

// Reset force-closes the breaker and clears the failure streak. The study
// driver calls it at phase boundaries: the streak at the end of a parallel
// phase depends on worker scheduling, and must not leak into the next
// (possibly serial, clock-advancing) phase. The cumulative Opens/Closes
// counters survive.
func (b *Breaker) Reset() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.open = false
	b.consec = 0
	b.mu.Unlock()
}

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() int64 {
	if b == nil {
		return 0
	}
	return b.opens.Load()
}

// Closes returns how many times the breaker has closed after opening.
func (b *Breaker) Closes() int64 {
	if b == nil {
		return 0
	}
	return b.closes.Load()
}

// CountersMap snapshots the breaker's cumulative counters for a
// checkpoint. The open/consec streak is deliberately not captured: the
// driver resets it at every phase boundary, and checkpoints are only
// taken at boundaries, so the streak is always zero there.
func (b *Breaker) CountersMap() map[string]int64 {
	if b == nil {
		return nil
	}
	return map[string]int64{"opens": b.opens.Load(), "closes": b.closes.Load()}
}

// RestoreCounters reinstates the cumulative counters from a checkpoint.
func (b *Breaker) RestoreCounters(m map[string]int64) {
	if b == nil {
		return
	}
	b.opens.Store(m["opens"])
	b.closes.Store(m["closes"])
}

// Stats is a snapshot of one policy's counters.
type Stats struct {
	Attempts  int64 // operations attempted (including retries)
	Retries   int64 // transient retries performed
	Throttles int64 // rate-limit waits performed
	Exhausted int64 // calls that ran out of budget
}

// Policy is the shared retry policy. Fields may be tuned after New but
// must not change while calls are in flight.
type Policy struct {
	// MaxAttempts bounds tries per call for transient failures.
	MaxAttempts int
	// MaxWaits bounds rate-limit waits per call. Phases whose waiter
	// cannot advance the clock set this low: a clock-windowed flood burst
	// never ends while the clock is frozen.
	MaxWaits int
	// BaseDelay seeds the exponential backoff and pads Retry-After waits.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step.
	MaxDelay time.Duration
	// Seed decorrelates jitter across clients.
	Seed uint64
	// Waiter absorbs every wait (backoff, Retry-After, breaker cooldown).
	Waiter Waiter
	// Breaker, when set, is consulted before each attempt and fed every
	// result. Clients of the same host share one.
	Breaker *Breaker

	attempts  atomic.Int64
	retries   atomic.Int64
	throttles atomic.Int64
	exhausted atomic.Int64
}

// New returns a policy with the pipeline defaults and a TallyWaiter.
func New(seed uint64) *Policy {
	return &Policy{
		MaxAttempts: 4,
		MaxWaits:    200,
		BaseDelay:   500 * time.Millisecond,
		MaxDelay:    60 * time.Second,
		Seed:        seed,
		Waiter:      &TallyWaiter{},
	}
}

// AccountSeed hashes an account name (FNV-1a, 64-bit) into a jitter
// seed, so each platform client's retries decorrelate by account.
func AccountSeed(account string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(account); i++ {
		h ^= uint64(account[i])
		h *= 1099511628211
	}
	return h
}

// Stats returns a snapshot of the counters.
func (p *Policy) Stats() Stats {
	return Stats{
		Attempts:  p.attempts.Load(),
		Retries:   p.retries.Load(),
		Throttles: p.throttles.Load(),
		Exhausted: p.exhausted.Load(),
	}
}

// StatsMap snapshots the policy's counters under stable names for a
// checkpoint.
func (p *Policy) StatsMap() map[string]int64 {
	return map[string]int64{
		"attempts":  p.attempts.Load(),
		"retries":   p.retries.Load(),
		"throttles": p.throttles.Load(),
		"exhausted": p.exhausted.Load(),
	}
}

// RestoreStats reinstates the counters from a checkpoint.
func (p *Policy) RestoreStats(m map[string]int64) {
	p.attempts.Store(m["attempts"])
	p.retries.Store(m["retries"])
	p.throttles.Store(m["throttles"])
	p.exhausted.Store(m["exhausted"])
}

func (p *Policy) wait(d time.Duration) {
	if d <= 0 {
		return
	}
	if p.Waiter != nil {
		p.Waiter.Wait(d)
	}
}

// Backoff returns the jittered wait before the given retry attempt
// (attempt 1 is the first retry): full jitter over [d/2, d) where d
// doubles from BaseDelay up to MaxDelay, drawn deterministically from
// (seed, key, attempt).
func (p *Policy) Backoff(key string, attempt int) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := d / 2
	return half + time.Duration(jitterHash(p.Seed, key, attempt)%uint64(half))
}

func jitterHash(seed uint64, key string, attempt int) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64) ^ seed
	h ^= uint64(attempt)
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h
}

// Do runs op until it succeeds, fails permanently, or exhausts the
// budget. op receives the attempt number (0-based) so it can stamp
// requests via faults.Mark. Exhaustion errors wrap both ErrExhausted and
// the last platform error.
func (p *Policy) Do(key string, op func(attempt int) Outcome) error {
	attempt, waits := 0, 0
	for {
		if d := p.Breaker.delay(); d > 0 {
			p.wait(d)
		}
		p.attempts.Add(1)
		out := op(attempt)
		switch out.Class {
		case Success:
			p.Breaker.record(true)
			return nil
		case Fatal:
			// A definitive answer means the service is healthy.
			p.Breaker.record(true)
			return out.Err
		case Transient:
			p.Breaker.record(false)
			attempt++
			if attempt >= p.MaxAttempts {
				p.exhausted.Add(1)
				return fmt.Errorf("%w: %s failed %d attempts: %w", ErrExhausted, key, attempt, out.Err)
			}
			p.retries.Add(1)
			p.wait(p.Backoff(key, attempt))
		case Throttle:
			p.Breaker.record(false)
			waits++
			if waits > p.MaxWaits {
				p.exhausted.Add(1)
				return fmt.Errorf("%w: %s throttled %d times: %w", ErrExhausted, key, waits, out.Err)
			}
			p.throttles.Add(1)
			d := out.RetryAfter
			if d <= 0 {
				d = p.BaseDelay
			}
			// Pad the advertised wait: token buckets refill continuously,
			// and retrying at the exact boundary loses to rounding.
			p.wait(d + p.BaseDelay)
		default:
			return fmt.Errorf("retry: %s: invalid outcome class %d", key, out.Class)
		}
	}
}

// ParseRetryAfter reads a Retry-After header as a duration (0 when absent
// or unparseable; only the delta-seconds form is supported).
func ParseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}
