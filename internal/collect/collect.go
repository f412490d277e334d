// Package collect implements the discovery pipeline of Section 3.1: hourly
// Search API queries for the six URL patterns, a continuous filtered
// stream, and the 1% sample stream as the control dataset. Results from
// both APIs are merged and deduplicated into the store; each API alone is
// incomplete (the service simulates index misses and stream drops), which
// is why the paper merges them.
package collect

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"msgscope/internal/checkpoint"
	"msgscope/internal/par"
	"msgscope/internal/social"
	"msgscope/internal/store"
	"msgscope/internal/twitter"
	"msgscope/internal/urlpat"
)

// Stats counts collection-side events.
type Stats struct {
	SearchTweets  int // tweets returned by search (pre-dedup)
	StreamTweets  int // tweets delivered by the filter stream
	ControlTweets int
	RateLimitHits int
	NoURLTweets   int // matched the pattern text but carried no invite URL
	NewGroups     int
	SocialPosts   int // posts ingested from the secondary network
	SocialNew     int // groups first discovered via the secondary network
	// SearchDeferred counts hourly queries that exhausted the retry
	// budget; the partial batch is kept and the cursor stays put, so the
	// next round re-covers the window (search has seven days of slack).
	SearchDeferred int
}

// counters is the lock-free mirror of Stats. Each field is a monotonic
// atomic, so the hourly search workers increment without sharing a mutex;
// Stats() materializes a snapshot that is exact whenever the pipeline is
// between phases (every call site in the driver).
type counters struct {
	searchTweets   atomic.Int64
	streamTweets   atomic.Int64
	controlTweets  atomic.Int64
	rateLimitHits  atomic.Int64
	noURLTweets    atomic.Int64
	newGroups      atomic.Int64
	socialPosts    atomic.Int64
	socialNew      atomic.Int64
	searchDeferred atomic.Int64
}

// Collector drives discovery against one Twitter client.
type Collector struct {
	Store  *store.Store
	Client *twitter.Client
	// Social, when set, is polled alongside the Twitter sources — the
	// future-work second discovery source.
	Social *social.Client
	// MaxPagesPerQuery bounds search pagination per hourly query.
	MaxPagesPerQuery int
	// SearchWorkers bounds the per-pattern fan-out of HourlySearch
	// (0 = one worker per tracked pattern, 1 = serial).
	SearchWorkers int

	stats counters

	// sinceID holds one cursor per tracked term. The map itself is
	// immutable after New (keys are exactly urlpat.TrackTerms()), so
	// concurrent per-term workers touch only their own atomic.
	sinceID  map[string]*atomic.Uint64
	socialID atomic.Uint64 // feed cursor

	filter *twitter.Stream
	sample *twitter.Stream

	// Reusable ingest buffers. The store copies records out of a batch
	// before AddTweetBatch/AddControlBatch return, so the collector can
	// recycle the backing arrays across rounds instead of allocating a
	// fresh batch per term per hour. termBatches is indexed like
	// urlpat.TrackTerms(): each concurrent search worker owns exactly one
	// slot, and the driver runs rounds serially, so no slot is ever shared.
	termBatches  [][]store.TweetIngest
	streamBatch  []store.TweetIngest
	controlBatch []store.ControlRecord
}

// New returns a Collector writing into st.
func New(st *store.Store, client *twitter.Client) *Collector {
	c := &Collector{
		Store:            st,
		Client:           client,
		MaxPagesPerQuery: 50,
		sinceID:          map[string]*atomic.Uint64{},
	}
	for _, term := range urlpat.TrackTerms() {
		c.sinceID[term] = &atomic.Uint64{}
	}
	return c
}

// Open connects the filter stream (tracking all six patterns) and the 1%
// sample stream.
func (c *Collector) Open(ctx context.Context) error {
	f, err := c.Client.OpenFilterStream(ctx, urlpat.TrackTerms())
	if err != nil {
		return fmt.Errorf("collect: opening filter stream: %w", err)
	}
	s, err := c.Client.OpenSampleStream(ctx)
	if err != nil {
		f.Close()
		return fmt.Errorf("collect: opening sample stream: %w", err)
	}
	c.filter, c.sample = f, s
	return nil
}

// Close tears down the streams.
func (c *Collector) Close() {
	if c.filter != nil {
		c.filter.Close()
	}
	if c.sample != nil {
		c.sample.Close()
	}
}

// FilterStream exposes the filter stream (for driver quiescing).
func (c *Collector) FilterStream() *twitter.Stream { return c.filter }

// SampleStream exposes the sample stream (for driver quiescing).
func (c *Collector) SampleStream() *twitter.Stream { return c.sample }

// HourlySearch runs one round of Search API queries, one per URL pattern,
// with since_id cursors so each round only pulls new tweets. Rate-limit
// errors are counted, not fatal: the seven-day search window means the next
// round recovers anything missed.
//
// The per-pattern query+paginate chains run concurrently on a bounded pool;
// ingest then applies the gathered batches in fixed pattern order, so the
// store's tweet slice is byte-for-byte the order the serial pipeline
// produced (the LDA experiment subsamples a collection-order prefix, so
// slice order is observable in report output). The expensive part — the
// HTTP round-trips and pagination — is what parallelizes; the in-memory
// batch append is negligible.
func (c *Collector) HourlySearch(ctx context.Context) error {
	terms := urlpat.TrackTerms()
	if c.termBatches == nil {
		c.termBatches = make([][]store.TweetIngest, len(terms))
	}
	tasks := make([]func() error, len(terms))
	for i, term := range terms {
		tasks[i] = func() error {
			batch, err := c.searchTerm(ctx, term, c.termBatches[i][:0])
			c.termBatches[i] = batch
			return err
		}
	}
	workers := c.SearchWorkers
	if workers <= 0 {
		// The in-process search is CPU work (the service's posting-list
		// walk and encode, the client's decode), and the service walks
		// each query's posting list outside its lock, so the chains run
		// in parallel on a multi-core host: BenchmarkHourlySearch/parallel
		// takes 0.58 ms at -cpu 2 vs 0.74 ms at -cpu 1 (medians, 2-vCPU
		// Xeon). Two workers per core, capped at one per pattern, keeps
		// every core busy without one goroutine per pattern on a small
		// machine. Results are identical either way — ingestion happens
		// in fixed pattern order after the fan-out.
		workers = min(len(terms), 2*runtime.GOMAXPROCS(0))
	}
	err := par.Do(workers, tasks)
	for _, batch := range c.termBatches {
		c.stats.newGroups.Add(int64(c.Store.AddTweetBatch(batch)))
	}
	return err
}

// searchTerm runs one pattern's query+paginate chain and returns its batch
// of extracted tweets appended to batch, advancing the pattern's since_id
// cursor.
func (c *Collector) searchTerm(ctx context.Context, term string, batch []store.TweetIngest) ([]store.TweetIngest, error) {
	cur := c.cursor(term)
	since := cur.Load()
	statuses, err := c.Client.Search(ctx, term, since, c.MaxPagesPerQuery)
	deferred := false
	if err != nil {
		if errors.Is(err, twitter.ErrRateLimited) {
			c.stats.rateLimitHits.Add(1)
		} else {
			// Retry budget exhausted mid-query: keep the pages already
			// fetched but leave the cursor where it was, so the next hourly
			// round re-covers this window instead of silently skipping it.
			c.stats.searchDeferred.Add(1)
			deferred = true
		}
	}
	c.stats.searchTweets.Add(int64(len(statuses)))
	maxID := since
	for _, st := range statuses {
		if st.ID > maxID {
			maxID = st.ID
		}
		if ing, ok := c.toIngest(st, store.SourceSearch); ok {
			batch = append(batch, ing)
		}
	}
	if !deferred {
		for {
			old := cur.Load()
			if maxID <= old || cur.CompareAndSwap(old, maxID) {
				break
			}
		}
	}
	return batch, nil
}

// cursor returns the term's since_id cell, creating one for untracked
// terms (only possible for callers bypassing TrackTerms).
func (c *Collector) cursor(term string) *atomic.Uint64 {
	if cur, ok := c.sinceID[term]; ok {
		return cur
	}
	// The shared map is never mutated after New, so an unknown term gets a
	// private cursor: correctness over cross-call persistence for a case
	// the pipeline never exercises.
	return &atomic.Uint64{}
}

// DrainStreams ingests everything buffered on both streams, as one batch
// per stream.
func (c *Collector) DrainStreams() {
	if c.filter != nil {
		statuses := c.filter.Drain()
		c.stats.streamTweets.Add(int64(len(statuses)))
		batch := c.streamBatch[:0]
		for _, st := range statuses {
			if ing, ok := c.toIngest(st, store.SourceStream); ok {
				batch = append(batch, ing)
			}
		}
		c.stats.newGroups.Add(int64(c.Store.AddTweetBatch(batch)))
		c.streamBatch = batch
	}
	if c.sample != nil {
		statuses := c.sample.Drain()
		batch := c.controlBatch[:0]
		for _, st := range statuses {
			batch = append(batch, store.ControlRecord{
				ID:        st.ID,
				UserID:    st.UserID,
				CreatedAt: st.CreatedAt,
				Lang:      st.Lang,
				Hashtags:  st.Hashtags,
				Mentions:  st.Mentions,
				Retweet:   st.IsRetweet,
			})
		}
		c.Store.AddControlBatch(batch)
		c.stats.controlTweets.Add(int64(len(batch)))
		c.controlBatch = batch
	}
}

// toIngest extracts the group URL from a status; ok is false when the
// status matched a pattern's text but carried no invite URL.
func (c *Collector) toIngest(st twitter.Status, src store.TweetSource) (store.TweetIngest, bool) {
	urls := urlpat.Extract(st.Text)
	if len(urls) == 0 {
		c.stats.noURLTweets.Add(1)
		return store.TweetIngest{}, false
	}
	gu := urls[0]
	return store.TweetIngest{
		Tweet: store.TweetRecord{
			ID:        st.ID,
			UserID:    st.UserID,
			CreatedAt: st.CreatedAt,
			Lang:      st.Lang,
			Hashtags:  st.Hashtags,
			Mentions:  st.Mentions,
			Retweet:   st.IsRetweet,
			Text:      st.Text,
			Platform:  gu.Platform,
			GroupCode: gu.Code,
			Source:    src,
		},
		Canonical: gu.Canonical,
	}, true
}

// PollSocial drains the secondary network's feed since the last cursor.
// No-op when no social client is configured.
func (c *Collector) PollSocial(ctx context.Context) error {
	if c.Social == nil {
		return nil
	}
	since := c.socialID.Load()
	posts, cursor, err := c.Social.Poll(ctx, since)
	if err != nil {
		return fmt.Errorf("collect: polling social feed: %w", err)
	}
	for _, p := range posts {
		urls := urlpat.Extract(p.Text)
		if len(urls) == 0 {
			c.stats.noURLTweets.Add(1)
			continue
		}
		gu := urls[0]
		isNew := c.Store.AddPost(store.PostRecord{
			ID:        p.ID,
			Author:    p.Author,
			CreatedAt: p.CreatedAt,
			Text:      p.Text,
			Platform:  gu.Platform,
			GroupCode: gu.Code,
		})
		c.stats.socialPosts.Add(1)
		if isNew {
			c.stats.socialNew.Add(1)
			c.stats.newGroups.Add(1)
			c.Store.SetCanonical(gu.Platform, gu.Code, gu.Canonical)
		}
	}
	if cursor > c.socialID.Load() {
		c.socialID.Store(cursor)
	}
	return nil
}

// State snapshots the collector's cursors and counters for a checkpoint.
// Only called between phases, where the atomics are quiescent.
func (c *Collector) State() checkpoint.CollectorState {
	st := checkpoint.CollectorState{
		SinceIDs: make(map[string]uint64, len(c.sinceID)),
		SocialID: c.socialID.Load(),
		Stats: map[string]int64{
			"search_tweets":   c.stats.searchTweets.Load(),
			"stream_tweets":   c.stats.streamTweets.Load(),
			"control_tweets":  c.stats.controlTweets.Load(),
			"rate_limit_hits": c.stats.rateLimitHits.Load(),
			"no_url_tweets":   c.stats.noURLTweets.Load(),
			"new_groups":      c.stats.newGroups.Load(),
			"social_posts":    c.stats.socialPosts.Load(),
			"social_new":      c.stats.socialNew.Load(),
			"search_deferred": c.stats.searchDeferred.Load(),
		},
	}
	for term, cur := range c.sinceID {
		st.SinceIDs[term] = cur.Load()
	}
	return st
}

// Restore reinstates cursors and counters from a checkpoint. Cursors for
// terms the current build does not track are dropped — the options hash
// upstream guarantees the term set matches in practice.
func (c *Collector) Restore(st checkpoint.CollectorState) {
	for term, v := range st.SinceIDs {
		if cur, ok := c.sinceID[term]; ok {
			cur.Store(v)
		}
	}
	c.socialID.Store(st.SocialID)
	c.stats.searchTweets.Store(st.Stats["search_tweets"])
	c.stats.streamTweets.Store(st.Stats["stream_tweets"])
	c.stats.controlTweets.Store(st.Stats["control_tweets"])
	c.stats.rateLimitHits.Store(st.Stats["rate_limit_hits"])
	c.stats.noURLTweets.Store(st.Stats["no_url_tweets"])
	c.stats.newGroups.Store(st.Stats["new_groups"])
	c.stats.socialPosts.Store(st.Stats["social_posts"])
	c.stats.socialNew.Store(st.Stats["social_new"])
	c.stats.searchDeferred.Store(st.Stats["search_deferred"])
}

// Stats returns a snapshot of collection counters. Counters are monotonic
// atomics; between pipeline phases (the only places the driver reads them)
// the snapshot is exact.
func (c *Collector) Stats() Stats {
	return Stats{
		SearchTweets:   int(c.stats.searchTweets.Load()),
		StreamTweets:   int(c.stats.streamTweets.Load()),
		ControlTweets:  int(c.stats.controlTweets.Load()),
		RateLimitHits:  int(c.stats.rateLimitHits.Load()),
		NoURLTweets:    int(c.stats.noURLTweets.Load()),
		NewGroups:      int(c.stats.newGroups.Load()),
		SocialPosts:    int(c.stats.socialPosts.Load()),
		SocialNew:      int(c.stats.socialNew.Load()),
		SearchDeferred: int(c.stats.searchDeferred.Load()),
	}
}
