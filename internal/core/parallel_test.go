package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestPipelineRaceHammer drives the three store-writing phases —
// hourly searches, stream drains, and daily metadata sweeps — concurrently
// against one store. The pipeline never overlaps these phases itself; the
// hammer exists so `go test -race` exercises the store's family locks and
// the atomic stat counters under genuine contention.
func TestPipelineRaceHammer(t *testing.T) {
	s, err := NewStudy(Config{Seed: 5, Scale: 0.004, Days: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if err := s.collector.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Two serial discovery days first, so the sweep has groups to probe.
	for day := 0; day < 2; day++ {
		if err := s.runDay(ctx, day, ""); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			s.Clock.Advance(time.Hour)
			s.TwitterSvc.PublishUpTo(s.Clock.Now())
			if err := s.collector.HourlySearch(ctx); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			s.collector.DrainStreams()
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := s.monitor.DailySweep(ctx, s.Clock.Now()); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The store must still be internally consistent: every family readable,
	// stats coherent.
	if got := s.Store.Tweets().Len(); got == 0 {
		t.Fatal("hammer left no tweets in the store")
	}
	if s.collector.Stats().SearchTweets == 0 {
		t.Fatal("search counters did not advance")
	}
	if s.monitor.Stats().Probes == 0 {
		t.Fatal("monitor counters did not advance")
	}
}
