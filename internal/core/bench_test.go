// End-to-end pipeline benchmarks. BenchmarkStudyRun is the headline
// number: the same study at the same seed with the fan-outs disabled
// (serial) versus enabled (parallel) — the collected dataset is identical
// in both modes, only wall-clock time differs. `make bench-json` records
// these in BENCH_2.json.
package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"msgscope/internal/collect"
	"msgscope/internal/httpx"
	"msgscope/internal/monitor"
	"msgscope/internal/platform/discord"
	"msgscope/internal/platform/telegram"
	"msgscope/internal/platform/whatsapp"
	"msgscope/internal/report"
	"msgscope/internal/simclock"
	"msgscope/internal/simworld"
	"msgscope/internal/store"
	"msgscope/internal/twitter"
)

// benchModes are the two pipeline configurations under comparison. Worker
// count 1 forces the pre-fan-out serial behavior; 0 picks the defaults
// (one search worker per URL pattern, the bounded join-collection pool).
var benchModes = []struct {
	name           string
	searchWorkers  int
	collectWorkers int
}{
	{"serial", 1, 1},
	{"parallel", 0, 0},
}

// BenchmarkStudyRun measures a full study — world generation, in-process
// services, hourly searches, stream drains, daily sweeps, join phase, and
// message collection — at 2% of paper volume over a shortened window. The
// checkpoint mode reruns the parallel configuration with a checkpoint
// directory, so `make bench-compare` gates the cost of persisting a
// manifest plus the record-log deltas at every boundary (target: under 5%
// over the plain parallel run).
func BenchmarkStudyRun(b *testing.B) {
	modes := []struct {
		name           string
		searchWorkers  int
		collectWorkers int
		checkpoint     bool
	}{
		{"serial", 1, 1, false},
		{"parallel", 0, 0, false},
		{"checkpoint", 0, 0, true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Seed:           42,
					Scale:          0.02,
					Days:           8,
					SearchWorkers:  mode.searchWorkers,
					CollectWorkers: mode.collectWorkers,
				}
				if mode.checkpoint {
					cfg.CheckpointDir = b.TempDir()
				}
				s, err := NewStudy(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Run(context.Background()); err != nil {
					s.Close()
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// benchStudy is a completed 2%-scale study shared by the analysis-phase
// benchmarks; its dataset is frozen after Run.
var (
	benchStudyOnce sync.Once
	benchStudy     *Study
	benchStudyErr  error
)

func sharedBenchStudy(b *testing.B) *Study {
	b.Helper()
	benchStudyOnce.Do(func() {
		s, err := NewStudy(Config{Seed: 42, Scale: 0.02, Days: 8})
		if err != nil {
			benchStudyErr = err
			return
		}
		if err := s.Run(context.Background()); err != nil {
			s.Close()
			benchStudyErr = err
			return
		}
		benchStudy = s
	})
	if benchStudyErr != nil {
		b.Fatal(benchStudyErr)
	}
	return benchStudy
}

// BenchmarkRenderAll measures the cold analysis path: every figure and
// every aggregation-backed table re-derived from the raw dataset through
// a fresh Aggregates (Table 3 is excluded — its LDA fit is measured by
// BenchmarkLDAFit in internal/analysis/lda). Since the single-pass
// rewrite this cost is one walk per record class plus rendering, however
// many figures consume it.
func BenchmarkRenderAll(b *testing.B) {
	s := sharedBenchStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := s.Dataset()
		ds.Agg = &report.AggCache{} // discard the study's memoized pass
		_ = report.Fig1(ds).Render()
		_ = report.Fig2(ds).Render()
		_ = report.Fig3(ds).Render()
		_ = report.Fig4(ds).Render()
		_ = report.Fig5(ds).Render()
		_ = report.Fig6(ds).Render()
		_ = report.Fig7(ds).Render()
		_ = report.Fig8(ds).Render()
		_ = report.Fig9(ds).Render()
		_ = report.Table2(ds).Render()
		_ = report.Table4(ds).Render()
		_ = report.Table5(ds).Render()
	}
}

// benchWorld is the shared 2%-scale world; generating it dominates fixture
// setup, and the services built on it never mutate it.
var (
	benchWorldOnce sync.Once
	benchWorld     *simworld.World
)

func sharedBenchWorld() *simworld.World {
	benchWorldOnce.Do(func() {
		benchWorld = simworld.New(simworld.DefaultConfig(42, 0.02))
	})
	return benchWorld
}

// searchFixture is one Twitter service + collector pair over the shared
// world, starting at the world's first hour.
type searchFixture struct {
	clock *simclock.Sim
	svc   *twitter.Service
	col   *collect.Collector
}

func newSearchFixture(b *testing.B, workers int) *searchFixture {
	b.Helper()
	w := sharedBenchWorld()
	clock := simclock.New(w.Cfg.Start)
	svc := twitter.NewService(w, clock, twitter.DefaultServiceConfig())
	url, stop := httpx.Serve(svc.Handler())
	b.Cleanup(stop)
	col := collect.New(store.New(), twitter.NewClient(url))
	col.SearchWorkers = workers
	return &searchFixture{clock: clock, svc: svc, col: col}
}

// BenchmarkHourlySearch measures one hourly round: advance the clock an
// hour, publish the world's new tweets, and run the per-pattern search
// fan-out. The fixture is rebuilt when the world's window is exhausted so
// every timed iteration searches a live hour.
func BenchmarkHourlySearch(b *testing.B) {
	for _, mode := range benchModes {
		b.Run(mode.name, func(b *testing.B) {
			ctx := context.Background()
			maxHours := sharedBenchWorld().Cfg.Days * 24
			var f *searchFixture
			hours := maxHours
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if hours >= maxHours {
					b.StopTimer()
					f = newSearchFixture(b, mode.searchWorkers)
					hours = 0
					b.StartTimer()
				}
				f.clock.Advance(time.Hour)
				f.svc.PublishUpTo(f.clock.Now())
				if err := f.col.HourlySearch(ctx); err != nil {
					b.Fatal(err)
				}
				hours++
			}
		})
	}
}

// sweepFixture holds a store populated by two days of discovery plus a
// monitor wired to all three platform services, shared by every
// BenchmarkDailySweep mode (observations simply keep accumulating). The
// services stay served for the life of the test binary.
var (
	sweepOnce    sync.Once
	sweepErr     error
	sweepMonitor *monitor.Monitor
	sweepClock   *simclock.Sim
)

func sweepFixture(b *testing.B) (*monitor.Monitor, *simclock.Sim) {
	b.Helper()
	sweepOnce.Do(func() {
		w := sharedBenchWorld()
		clock := simclock.New(w.Cfg.Start)
		twSvc := twitter.NewService(w, clock, twitter.DefaultServiceConfig())
		twURL, _ := httpx.Serve(twSvc.Handler())
		waURL, _ := httpx.Serve(whatsapp.NewService(w, clock).Handler())
		tgURL, _ := httpx.Serve(telegram.NewService(w, clock, telegram.DefaultServiceConfig()).Handler())
		dcURL, _ := httpx.Serve(discord.NewService(w, clock, discord.DefaultServiceConfig()).Handler())

		st := store.New()
		col := collect.New(st, twitter.NewClient(twURL))
		ctx := context.Background()
		for hour := 0; hour < 48; hour++ {
			clock.Advance(time.Hour)
			twSvc.PublishUpTo(clock.Now())
			if sweepErr = col.HourlySearch(ctx); sweepErr != nil {
				return
			}
		}
		sweepMonitor = monitor.New(st,
			whatsapp.NewClient(waURL, "monitor"),
			telegram.NewClient(tgURL, "monitor"),
			discord.NewClient(dcURL, "monitor"))
		sweepClock = clock
	})
	if sweepErr != nil {
		b.Fatalf("building sweep fixture: %v", sweepErr)
	}
	return sweepMonitor, sweepClock
}

// BenchmarkDailySweep measures one metadata sweep over every discovered
// group URL, at the sweep's default 16 probe workers versus a single
// worker, over the same in-process transport the study uses.
func BenchmarkDailySweep(b *testing.B) {
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 16}} {
		b.Run(mode.name, func(b *testing.B) {
			m, clock := sweepFixture(b)
			m.Workers = mode.workers
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.DailySweep(ctx, clock.Now()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
