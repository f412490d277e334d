// Package twitter simulates the two Twitter APIs the study collects from —
// the Search API (seven-day window, paginated, rate limited) and the
// Streaming API (filtered real-time delivery plus the 1% sample stream) —
// and provides the client stack that consumes them. The service serves a
// simworld over real HTTP; the collection pipeline only ever sees the wire
// format, exactly as the authors' tooling did.
//
// Fidelity knobs reproduce the discrepancies the paper reports between the
// two APIs (Section 3.1): the search index misses a fraction of tweets, and
// streaming connections drop a fraction of matching tweets, so merging both
// sources recovers more than either alone.
package twitter

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"msgscope/internal/faults"
	"msgscope/internal/jsonx"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
)

// ServiceConfig tunes the simulated API's imperfections.
type ServiceConfig struct {
	// SearchMissP is the fraction of tweets the search index never
	// returns (deterministic per tweet).
	SearchMissP float64
	// StreamDropP is the fraction of matching tweets a streaming
	// connection fails to deliver (deterministic per tweet/connection).
	StreamDropP float64
	// SearchPageSize is the maximum statuses per search response.
	SearchPageSize int
	// SearchRateLimit is the token budget per SearchRateWindow.
	SearchRateLimit  int
	SearchRateWindow time.Duration
	// TransientErrorP injects HTTP 503s on search requests (deterministic
	// in the request sequence), exercising client retry logic.
	TransientErrorP float64
}

// DefaultServiceConfig mirrors Twitter's v1.1 limits with mild
// inter-API discrepancy.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{
		SearchMissP:      0.04,
		StreamDropP:      0.03,
		SearchPageSize:   100,
		SearchRateLimit:  450,
		SearchRateWindow: 15 * time.Minute,
	}
}

// Service is the simulated Twitter backend.
type Service struct {
	cfg   ServiceConfig
	world *simworld.World
	clock simclock.Clock

	// Faults, when set, injects failures into search requests (streams are
	// exempt: a mid-stream abort would lose queued events the quiesce
	// accounting has already promised to the driver).
	Faults *faults.Injector

	mu         sync.Mutex
	published  []*simworld.Tweet       // platform tweets published so far
	control    []*simworld.Tweet       // control (sample-stream) tweets
	index      map[string]*postingList // search index: one posting list per query
	pubCur     cursor                  // next world tweet to publish
	ctlCur     cursor
	nextSubID  int
	subs       map[int]*subscriber
	rlTokens   float64
	rlLastFill time.Time
	reqSeq     uint64 // search request counter, drives fault injection
}

// cursor walks the world's per-day tweet slices in publication order.
type cursor struct{ day, idx int }

type subscriber struct {
	id      int
	sample  bool     // sample stream (control) vs filter stream
	tracks  []string // filter terms (substring match, like track=)
	ch      chan *simworld.Tweet
	queued  int // events enqueued for this subscriber (post-drop)
	dropped int
	closed  bool
}

// NewService builds a Service over the world.
func NewService(world *simworld.World, clock simclock.Clock, cfg ServiceConfig) *Service {
	return &Service{
		cfg:        cfg,
		world:      world,
		clock:      clock,
		subs:       map[int]*subscriber{},
		index:      map[string]*postingList{},
		rlTokens:   float64(cfg.SearchRateLimit),
		rlLastFill: clock.Now(),
	}
}

// PublishUpTo pushes all world tweets with CreatedAt <= now into the
// published set and streams, returning how many platform tweets were
// published by this call. The driver calls it after advancing the clock.
// Within each day the world's tweets are time-sorted, so a (day, idx)
// cursor publishes each tweet exactly once in order.
func (s *Service) PublishUpTo(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.advanceCursor(&s.pubCur, s.world.TweetsByDay, &s.published, false, now)
	s.advanceCursor(&s.ctlCur, s.world.ControlByDay, &s.control, true, now)
	return n
}

func (s *Service) advanceCursor(cur *cursor, byDay [][]*simworld.Tweet,
	out *[]*simworld.Tweet, control bool, now time.Time) int {
	n := 0
	for cur.day < len(byDay) {
		tweets := byDay[cur.day]
		for cur.idx < len(tweets) {
			tw := tweets[cur.idx]
			if tw.CreatedAt.After(now) {
				return n
			}
			*out = append(*out, tw)
			s.fanOut(tw, control)
			cur.idx++
			n++
		}
		cur.day++
		cur.idx = 0
	}
	return n
}

func (s *Service) fanOut(tw *simworld.Tweet, control bool) {
	for _, sub := range s.subs {
		if sub.closed || sub.sample != control {
			continue
		}
		if !control && !matchesTracks(tw.Text, sub.tracks) {
			continue
		}
		if s.cfg.StreamDropP > 0 && dropHash(tw.ID, uint64(sub.id)) < s.cfg.StreamDropP {
			sub.dropped++
			continue
		}
		select {
		case sub.ch <- tw:
			sub.queued++
		default:
			// Slow consumer: Twitter disconnects laggards; we count the
			// loss instead so the study driver can observe it.
			sub.dropped++
		}
	}
}

func matchesTracks(text string, tracks []string) bool {
	for _, t := range tracks {
		if strings.Contains(text, t) {
			return true
		}
	}
	return false
}

// dropHash maps (tweet, subscriber) to [0,1) deterministically.
func dropHash(id, salt uint64) float64 {
	h := id ^ salt*0x9E3779B97F4A7C15
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h%1_000_000) / 1_000_000
}

// missHash decides search-index misses, deterministic per tweet.
func missHash(id uint64) float64 { return dropHash(id, 0x5EA4C4) }

// QueuedFor reports how many events have been enqueued to the subscriber
// with the given ID (post-drop). The study driver uses it to quiesce:
// advance clock → PublishUpTo → wait until the client consumed QueuedFor.
func (s *Service) QueuedFor(subID int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.subs[subID]; ok {
		return sub.queued
	}
	return 0
}

// DroppedFor reports how many events were dropped for a subscriber.
func (s *Service) DroppedFor(subID int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sub, ok := s.subs[subID]; ok {
		return sub.dropped
	}
	return 0
}

// RequestState is the service's mutable request-side state, carried by a
// study checkpoint. The published-tweet cursors and stream subscriptions
// are not part of it: a resume re-derives the former by replaying
// PublishUpTo to the checkpoint clock before any stream opens, and fresh
// stream connections re-claim the same subscriber IDs a fresh run would.
type RequestState struct {
	RateTokens   float64
	RateLastFill time.Time
	ReqSeq       uint64
}

// RequestState snapshots the search rate limiter and request sequence.
func (s *Service) RequestState() RequestState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RequestState{RateTokens: s.rlTokens, RateLastFill: s.rlLastFill, ReqSeq: s.reqSeq}
}

// RestoreRequestState installs a checkpointed request state.
func (s *Service) RestoreRequestState(st RequestState) {
	s.mu.Lock()
	s.rlTokens = st.RateTokens
	s.rlLastFill = st.RateLastFill
	s.reqSeq = st.ReqSeq
	s.mu.Unlock()
}

// PublishedCounts returns (platform tweets, control tweets) published.
func (s *Service) PublishedCounts() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.published), len(s.control)
}

// Handler returns the HTTP mux serving the simulated API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/1.1/search/tweets.json", s.handleSearch)
	mux.HandleFunc("/1.1/statuses/filter.json", s.handleFilter)
	mux.HandleFunc("/1.1/statuses/sample.json", s.handleSample)
	return mux
}

// --- Search API ---

func (s *Service) takeSearchToken() (ok bool, retryAfter time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock.Now()
	elapsed := now.Sub(s.rlLastFill)
	if elapsed > 0 {
		refill := float64(s.cfg.SearchRateLimit) * float64(elapsed) / float64(s.cfg.SearchRateWindow)
		s.rlTokens += refill
		if s.rlTokens > float64(s.cfg.SearchRateLimit) {
			s.rlTokens = float64(s.cfg.SearchRateLimit)
		}
		s.rlLastFill = now
	}
	if s.rlTokens >= 1 {
		s.rlTokens--
		return true, 0
	}
	return false, s.cfg.SearchRateWindow / time.Duration(s.cfg.SearchRateLimit)
}

// postingList is the search index's entry for one query: the tweets of
// published[:upto] that contain the query and that the index did not
// miss, in publication order.
type postingList struct {
	tweets []*simworld.Tweet
	upto   int
}

// postings extends q's posting list, built on q's first search, over the
// tweets published since the last search for q, and returns its prefix.
func (s *Service) postings(q string) []*simworld.Tweet {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.index[q]
	if p == nil {
		p = &postingList{}
		s.index[q] = p
	}
	for _, tw := range s.published[p.upto:] {
		if strings.Contains(tw.Text, q) && missHash(tw.ID) >= s.cfg.SearchMissP {
			p.tweets = append(p.tweets, tw)
		}
	}
	p.upto = len(s.published)
	return p.tweets
}

// search serves one Search API page: up to count of q's matches in the
// 7-day window with since_id < ID <= max_id (max_id 0 = no bound),
// newest first, and the max_id of the next page (0 on the last one).
//
// It walks q's posting list newest-first outside s.mu: the list is
// append-only, so its prefix stays valid. Tweet IDs are snowflakes
// (ms<<22 | seq) and publication follows CreatedAt, so ID>>22 never
// decreases along the list, but IDs within one millisecond may be out of
// order. The walk is therefore bounded by millisecond, and the exact
// max_id/since_id filters decide the boundary milliseconds.
func (s *Service) search(q string, count int, sinceID, maxID uint64) (page []*simworld.Tweet, nextMax uint64) {
	horizon := s.clock.Now().Add(-7 * 24 * time.Hour) // the Search API's 7-day window
	list := s.postings(q)
	end := len(list)
	if maxID != 0 {
		end = sort.Search(len(list), func(i int) bool { return list[i].ID>>22 > maxID>>22 })
	}
	for i := end - 1; i >= 0; i-- {
		tw := list[i]
		if tw.CreatedAt.Before(horizon) || tw.ID>>22 < sinceID>>22 {
			break
		}
		if (maxID != 0 && tw.ID > maxID) || tw.ID <= sinceID {
			continue
		}
		if len(page) == count {
			return page, page[len(page)-1].ID - 1
		}
		page = append(page, tw)
	}
	return page, 0
}

func (s *Service) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.Faults.Intercept(w, r, "", func(w http.ResponseWriter) {
		// Twitter's native rate-limit shape, so the client's existing 429
		// handling (advance the cursor window) covers injected floods too.
		w.Header().Set("Retry-After", "2")
		http.Error(w, `{"errors":[{"code":88,"message":"Rate limit exceeded"}]}`, http.StatusTooManyRequests)
	}) {
		return
	}
	if s.cfg.TransientErrorP > 0 {
		s.mu.Lock()
		s.reqSeq++
		fail := dropHash(s.reqSeq, 0x5E41C3) < s.cfg.TransientErrorP
		s.mu.Unlock()
		if fail {
			http.Error(w, `{"errors":[{"code":130,"message":"Over capacity"}]}`,
				http.StatusServiceUnavailable)
			return
		}
	}
	if ok, retry := s.takeSearchToken(); !ok {
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds())+1))
		http.Error(w, `{"errors":[{"code":88,"message":"Rate limit exceeded"}]}`, http.StatusTooManyRequests)
		return
	}
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, `{"errors":[{"code":25,"message":"Query parameters are missing"}]}`, http.StatusBadRequest)
		return
	}
	count := s.cfg.SearchPageSize
	if c := params.Get("count"); c != "" {
		if v, err := strconv.Atoi(c); err == nil && v > 0 && v < count {
			count = v
		}
	}
	var maxID, sinceID uint64
	if v := params.Get("max_id"); v != "" {
		maxID, _ = strconv.ParseUint(v, 10, 64)
	}
	if v := params.Get("since_id"); v != "" {
		sinceID, _ = strconv.ParseUint(v, 10, 64)
	}

	page, nextMax := s.search(q, count, sinceID, maxID)

	// Append-encoded into a pooled buffer, byte-identical to the
	// json.NewEncoder(searchResponse{...}) rendering this replaced
	// (search_test.go holds the two equal through referenceSearchBody).
	bp := jsonx.GetBuf()
	defer jsonx.PutBuf(bp)
	buf := append((*bp)[:0], `{"statuses":[`...)
	for i, tw := range page {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendTweet(buf, tw)
	}
	buf = append(buf, `],"search_metadata":{`...)
	if nextMax != 0 {
		buf = append(buf, `"next_results":`...)
		buf = jsonx.AppendString(buf, "?max_id="+strconv.FormatUint(nextMax, 10)+"&q="+url.QueryEscape(q))
		buf = append(buf, `,"max_id_str":"`...)
		buf = strconv.AppendUint(buf, nextMax, 10)
		buf = append(buf, '"')
	}
	buf = append(buf, '}', '}', '\n')
	*bp = buf
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf)
}

// --- Streaming APIs ---

func (s *Service) handleFilter(w http.ResponseWriter, r *http.Request) {
	track := r.URL.Query().Get("track")
	if track == "" {
		http.Error(w, `{"errors":[{"code":38,"message":"track parameter missing"}]}`, http.StatusBadRequest)
		return
	}
	s.serveStream(w, r, false, strings.Split(track, ","))
}

func (s *Service) handleSample(w http.ResponseWriter, r *http.Request) {
	s.serveStream(w, r, true, nil)
}

func (s *Service) serveStream(w http.ResponseWriter, r *http.Request, sample bool, tracks []string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := &subscriber{
		sample: sample,
		tracks: tracks,
		ch:     make(chan *simworld.Tweet, 1<<16),
	}
	s.mu.Lock()
	s.nextSubID++
	sub.id = s.nextSubID
	s.subs[sub.id] = sub
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		sub.closed = true
		delete(s.subs, sub.id)
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Transfer-Encoding", "chunked")
	w.Header().Set("X-Sim-Subscription", strconv.Itoa(sub.id))
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ctx := r.Context()
	keepAlive := time.NewTicker(200 * time.Millisecond)
	defer keepAlive.Stop()
	var buf []byte // per-connection scratch, reused for every event
	for {
		select {
		case <-ctx.Done():
			return
		case tw := <-sub.ch:
			buf = appendTweet(buf[:0], tw)
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return
			}
			flusher.Flush()
		case <-keepAlive.C:
			// Blank keep-alive line, as the real streaming API sends.
			if _, err := fmt.Fprint(w, "\r\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
