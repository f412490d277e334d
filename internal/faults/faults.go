// Package faults injects deterministic failures into the simulated
// platform services: transient 500s, aborted connections, malformed
// bodies, rate-limit (flood) bursts, and scheduled outage windows on the
// virtual clock. Every decision is a pure function of (plan seed, request
// key, retry attempt, phase epoch), so the same seed and plan produce the
// same faults no matter how many workers race the requests — the property
// the determinism-under-faults tests rely on.
package faults

import (
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"msgscope/internal/simclock"
)

// Window is a half-open interval [From, To) on the virtual clock.
type Window struct {
	From time.Time
	To   time.Time
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Time) bool {
	return !t.Before(w.From) && t.Before(w.To)
}

// Plan configures fault injection. The zero value injects nothing.
type Plan struct {
	// Seed decorrelates fault draws from the world seed.
	Seed uint64
	// ErrorRate is the probability of an injected HTTP 500 per attempt.
	ErrorRate float64
	// TimeoutRate is the probability of an aborted connection per attempt
	// (the simulation's stand-in for a hang: the client sees a transport
	// error immediately instead of sleeping through a real timeout).
	TimeoutRate float64
	// MalformedRate is the probability of a truncated response body.
	MalformedRate float64
	// FloodBursts are windows during which every covered request is
	// answered with the platform's native rate-limit response
	// (429/FLOOD_WAIT).
	FloodBursts []Window
	// OutageWindows are windows during which every covered request is
	// answered 503, simulating a platform-wide outage.
	OutageWindows []Window
}

// Kind classifies one injected fault.
type Kind int

// Fault kinds. None means the request proceeds normally.
const (
	None Kind = iota
	ServerError
	Timeout
	Malformed
	Flood
	Outage
	numKinds
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case ServerError:
		return "server-error"
	case Timeout:
		return "timeout"
	case Malformed:
		return "malformed"
	case Flood:
		return "flood"
	case Outage:
		return "outage"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// AttemptHeader carries the retry layer's attempt counter so the injector
// can draw an independent fault decision per attempt (a permanently
// faulted key would otherwise never pass retries).
const AttemptHeader = "X-Fault-Attempt"

// Mark stamps a retried request with its attempt number. A first attempt
// carries no header, which Intercept reads as attempt 0.
func Mark(req *http.Request, attempt int) {
	if attempt != 0 {
		req.Header.Set(AttemptHeader, strconv.Itoa(attempt))
	}
}

// Counts is a snapshot of injected faults by kind.
type Counts struct {
	ServerErrors int64
	Timeouts     int64
	Malformed    int64
	Floods       int64
	Outages      int64
}

// Total sums all injected faults.
func (c Counts) Total() int64 {
	return c.ServerErrors + c.Timeouts + c.Malformed + c.Floods + c.Outages
}

// Injector is the per-run fault source the services consult. A nil
// *Injector is valid and injects nothing, so services need no guards.
type Injector struct {
	plan  Plan
	clock simclock.Clock
	epoch atomic.Uint64
	n     [numKinds]atomic.Int64
}

// NewInjector builds an injector for the plan; a nil plan yields a nil
// injector (inject nothing).
func NewInjector(plan *Plan, clock simclock.Clock) *Injector {
	if plan == nil {
		return nil
	}
	return &Injector{plan: *plan, clock: clock}
}

// NextEpoch advances the phase epoch. The study driver calls it at every
// phase boundary (each hourly search, daily sweep, the join, the final
// collection) so repeated requests — e.g. the same group probed every
// day — draw fresh fault decisions each phase instead of failing forever.
func (in *Injector) NextEpoch() {
	if in == nil {
		return
	}
	in.epoch.Add(1)
}

// Epoch returns the current phase epoch, for checkpointing.
func (in *Injector) Epoch() uint64 {
	if in == nil {
		return 0
	}
	return in.epoch.Load()
}

// CountsMap snapshots the injection counters under stable names for a
// checkpoint.
func (in *Injector) CountsMap() map[string]int64 {
	if in == nil {
		return nil
	}
	m := make(map[string]int64, int(numKinds)-1)
	for k := None + 1; k < numKinds; k++ {
		m[k.String()] = in.n[k].Load()
	}
	return m
}

// Restore reinstates the phase epoch and injection counters from a
// checkpoint. The epoch is the only injector state that shapes future
// draws, so restoring it makes post-resume fault decisions identical to
// the uninterrupted run's.
func (in *Injector) Restore(epoch uint64, counts map[string]int64) {
	if in == nil {
		return
	}
	in.epoch.Store(epoch)
	for k := None + 1; k < numKinds; k++ {
		in.n[k].Store(counts[k.String()])
	}
}

// Counts returns how many faults have been injected so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	return Counts{
		ServerErrors: in.n[ServerError].Load(),
		Timeouts:     in.n[Timeout].Load(),
		Malformed:    in.n[Malformed].Load(),
		Floods:       in.n[Flood].Load(),
		Outages:      in.n[Outage].Load(),
	}
}

// Decide returns the fault (or None) for one request attempt. The result
// depends only on the plan, the virtual clock, the key, the attempt, and
// the current epoch — never on goroutine scheduling.
func (in *Injector) Decide(key string, attempt int) Kind {
	if in == nil {
		return None
	}
	now := in.clock.Now()
	for _, w := range in.plan.OutageWindows {
		if w.Contains(now) {
			return Outage
		}
	}
	for _, w := range in.plan.FloodBursts {
		if w.Contains(now) {
			return Flood
		}
	}
	u := in.draw(key, attempt)
	switch {
	case u < in.plan.ErrorRate:
		return ServerError
	case u < in.plan.ErrorRate+in.plan.TimeoutRate:
		return Timeout
	case u < in.plan.ErrorRate+in.plan.TimeoutRate+in.plan.MalformedRate:
		return Malformed
	}
	return None
}

// draw hashes (seed, epoch, key, attempt) to [0,1).
func (in *Injector) draw(key string, attempt int) float64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime64
		}
	}
	mix(in.plan.Seed)
	mix(in.epoch.Load())
	mix(uint64(attempt))
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix-style finalizer for uniformity.
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h%1_000_000) / 1_000_000
}

// Intercept decides and, when a fault applies, writes the fault response,
// reporting true so the handler returns early. The request key is the
// method, the request URI, and the account header (never the host: test
// servers bind random ports, and any port-dependent decision would break
// run-to-run byte identity). flood writes the platform's native
// rate-limit response; a nil flood falls back to a generic 429.
func (in *Injector) Intercept(w http.ResponseWriter, r *http.Request, acctHeader string, flood func(http.ResponseWriter)) bool {
	if in == nil {
		return false
	}
	key := r.Method + " " + r.URL.RequestURI()
	if acctHeader != "" {
		key += " " + r.Header.Get(acctHeader)
	}
	attempt, _ := strconv.Atoi(r.Header.Get(AttemptHeader))
	kind := in.Decide(key, attempt)
	if kind == None {
		return false
	}
	in.n[kind].Add(1)
	switch kind {
	case ServerError:
		http.Error(w, "injected server error", http.StatusInternalServerError)
	case Timeout:
		// Abort the connection without writing a response: the client sees
		// a transport error, the virtual-time analogue of a hung request —
		// no goroutine ever sleeps.
		panic(http.ErrAbortHandler)
	case Malformed:
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"truncated`)
	case Flood:
		if flood != nil {
			flood(w)
		} else {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "injected rate limit", http.StatusTooManyRequests)
		}
	case Outage:
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
	}
	return true
}
