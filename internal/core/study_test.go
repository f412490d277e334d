package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"msgscope/internal/analysis/stats"
	"msgscope/internal/httpx"
	"msgscope/internal/platform"
	"msgscope/internal/report"
	"msgscope/internal/simworld"
	"msgscope/internal/store"
	"msgscope/internal/twitter"
)

// runSmallStudy runs a tiny end-to-end study once per test binary.
func runSmallStudy(t *testing.T) *Study {
	t.Helper()
	smallOnce.Do(func() {
		s, err := NewStudy(Config{
			Seed:  11,
			Scale: 0.004,
			Days:  10,
		})
		if err != nil {
			smallErr = err
			return
		}
		if err := s.Run(context.Background()); err != nil {
			s.Close()
			smallErr = err
			return
		}
		smallStudy = s
	})
	if smallErr != nil {
		t.Fatalf("study run failed: %v", smallErr)
	}
	return smallStudy
}

func TestStudyEndToEnd(t *testing.T) {
	s := runSmallStudy(t)
	ds := s.Dataset()

	t2 := report.Table2(ds)
	if t2.Total.Tweets == 0 {
		t.Fatal("no tweets collected")
	}
	if t2.Total.GroupURLs == 0 {
		t.Fatal("no group URLs discovered")
	}
	if t2.Total.JoinedGroups == 0 {
		t.Fatal("no groups joined")
	}
	if t2.Total.Messages == 0 {
		t.Fatal("no messages collected")
	}
	for _, row := range t2.Rows {
		if row.Tweets == 0 {
			t.Errorf("%v: no tweets", row.Platform)
		}
		if row.GroupURLs == 0 {
			t.Errorf("%v: no group URLs", row.Platform)
		}
	}
	t.Logf("\n%s", t2.Render())
}

func TestStudyDiscoveryMergesBothSources(t *testing.T) {
	s := runSmallStudy(t)
	stats := s.CollectorStats()
	if stats.SearchTweets == 0 {
		t.Error("search API contributed nothing")
	}
	if stats.StreamTweets == 0 {
		t.Error("streaming API contributed nothing")
	}
	if stats.ControlTweets == 0 {
		t.Error("control stream contributed nothing")
	}
	// Both APIs are lossy on their own; the merged set should exceed the
	// stream-only count divided by overlap (a weak but meaningful bound:
	// dedup must have actually happened).
	tweets := s.Dataset().Store.Tweets().Len()
	if tweets >= stats.SearchTweets+stats.StreamTweets {
		t.Errorf("dedup did not collapse duplicates: %d stored vs %d+%d ingested",
			tweets, stats.SearchTweets, stats.StreamTweets)
	}
}

func TestStudyCollectedTweetsMatchWorld(t *testing.T) {
	s := runSmallStudy(t)
	published, _ := s.TwitterSvc.PublishedCounts()
	stored := s.Dataset().Store.Tweets().Len()
	if stored == 0 || published == 0 {
		t.Fatalf("stored=%d published=%d", stored, published)
	}
	// The merge of both lossy sources should recover nearly everything.
	frac := float64(stored) / float64(published)
	if frac < 0.95 {
		t.Errorf("merged recall %.3f too low (stored %d of %d)", frac, stored, published)
	}
	if stored > published {
		t.Errorf("stored %d exceeds published %d", stored, published)
	}
}

func TestStudyObservationsRecorded(t *testing.T) {
	s := runSmallStudy(t)
	withObs := 0
	list := s.Store.Groups()
	total := list.Len()
	for i := 0; i < list.Len(); i++ {
		if list.Obs(i).Len() > 0 {
			withObs++
		}
	}
	if withObs == 0 {
		t.Fatal("no groups have daily observations")
	}
	if float64(withObs)/float64(total) < 0.95 {
		t.Errorf("only %d of %d groups have observations", withObs, total)
	}
}

func TestStudyObservationsStopAfterRevocation(t *testing.T) {
	s := runSmallStudy(t)
	list := s.Store.Groups()
	for i := 0; i < list.Len(); i++ {
		g := list.At(i)
		deadSeen := false
		list.Obs(i).Each(func(o store.Observation) bool {
			if deadSeen {
				t.Fatalf("%v %s probed after observed revoked", g.Platform, g.Code)
			}
			if !o.Alive {
				deadSeen = true
			}
			return true
		})
	}
}

func TestStudyJoinRespectsDiscordCap(t *testing.T) {
	s := runSmallStudy(t)
	joined := s.Store.GroupsOf(platform.Discord).Where(func(g store.GroupRecord) bool {
		return g.Joined
	}).Len()
	if joined > 100 {
		t.Errorf("joined %d Discord guilds, beyond the 100-guild cap", joined)
	}
}

func TestStudyWhatsAppMessagesOnlyAfterJoin(t *testing.T) {
	s := runSmallStudy(t)
	joinAt := map[string]int64{}
	wa := s.Store.GroupsOf(platform.WhatsApp)
	for i := 0; i < wa.Len(); i++ {
		if g := wa.At(i); g.Joined {
			joinAt[g.Code] = g.JoinedAt.UnixMilli()
		}
	}
	msgs := s.Store.Messages()
	for i, n := 0, msgs.Len(); i < n; i++ {
		m := msgs.At(i)
		if m.Platform != platform.WhatsApp {
			continue
		}
		if at, ok := joinAt[m.GroupCode]; ok && m.SentAt.UnixMilli() < at {
			t.Fatalf("WhatsApp message in %s predates join", m.GroupCode)
		}
	}
}

func TestStudyPrivacyShapes(t *testing.T) {
	s := runSmallStudy(t)
	t4 := report.Table4(s.Dataset())
	for _, e := range t4.Report.Exposures {
		switch e.Platform {
		case platform.WhatsApp:
			if e.PhoneShare < 0.999 {
				t.Errorf("WhatsApp phone exposure %.3f, want ~1.0", e.PhoneShare)
			}
			if e.CreatorsSeen == 0 {
				t.Error("no WhatsApp creators observed from landing pages")
			}
		case platform.Telegram:
			if e.PhoneShare > 0.05 {
				t.Errorf("Telegram phone exposure %.4f, want <0.05", e.PhoneShare)
			}
		case platform.Discord:
			if e.PhonesExposed != 0 {
				t.Errorf("Discord exposed %d phones, want 0", e.PhonesExposed)
			}
			if e.LinkedShare < 0.10 || e.LinkedShare > 0.55 {
				t.Errorf("Discord linked share %.3f, want around 0.30", e.LinkedShare)
			}
		}
	}
	t.Logf("\n%s", t4.Render())
}

// TestPipelineRecoversGroundTruthDistributions compares distributions the
// pipeline measured through the HTTP services against the world's ground
// truth, using the Kolmogorov-Smirnov distance. Verifies the measurement
// path (scraping, APIs, daily cadence) does not distort the planted shapes.
func TestPipelineRecoversGroundTruthDistributions(t *testing.T) {
	s := runSmallStudy(t)
	f7 := report.Fig7(s.Dataset())
	for _, p := range platform.All {
		truth := stats.NewECDF(nil)
		for _, g := range s.World.Groups[p] {
			// Only groups the pipeline could observe alive.
			if !s.World.AliveAt(g, g.FirstShareAt.Add(24*time.Hour)) {
				continue
			}
			truth.AddInt(s.World.MembersAt(g, g.FirstShareAt.Add(24*time.Hour)))
		}
		measured := f7.Members[p]
		if measured.N() < 20 || truth.N() < 20 {
			continue
		}
		if d := stats.KS(truth, measured); d > 0.15 {
			t.Errorf("%v: KS(ground truth members, measured) = %.3f, want < 0.15", p, d)
		}
	}
}

// TestStudyConfigOverrides exercises the World/Twitter override paths and a
// sparser monitoring cadence.
func TestStudyConfigOverrides(t *testing.T) {
	wcfg := simworld.DefaultConfig(3, 0.002)
	tcfg := twitter.DefaultServiceConfig()
	tcfg.SearchMissP = 0
	tcfg.StreamDropP = 0
	s, err := NewStudy(Config{
		Seed:             3,
		Scale:            0.002,
		Days:             6,
		World:            &wcfg,
		Twitter:          &tcfg,
		MonitorEveryDays: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Perfect APIs: everything published is collected.
	published, _ := s.TwitterSvc.PublishedCounts()
	if got := s.Store.Tweets().Len(); got != published {
		t.Fatalf("perfect APIs collected %d of %d", got, published)
	}
	// Every-2-days probing: at most ceil(6/2)=3 observations per group.
	gl := s.Store.Groups()
	for i := 0; i < gl.Len(); i++ {
		if n := gl.Obs(i).Len(); n > 3 {
			t.Fatalf("group %s has %d observations with cadence 2 over 6 days",
				gl.At(i).Code, n)
		}
	}
}

// TestStudyCannotRunTwice guards the one-shot contract.
func TestStudyCannotRunTwice(t *testing.T) {
	s := runSmallStudy(t)
	if err := s.Run(context.Background()); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestCloseLeavesNoGoroutines: Close stops every in-process service —
// the stream handlers included — and waits for in-flight handlers, so a
// finished study leaves nothing running and its hosts refuse requests.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := NewStudy(Config{Seed: 5, Scale: 0.004, Days: 3, EnableSocialDiscovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		s.Close()
		t.Fatal(err)
	}
	url := s.collector.Social.BaseURL
	s.Close()
	if _, err := httpx.NewClient().Get(url + "/"); !errors.Is(err, httpx.ErrStopped) {
		t.Fatalf("request to a closed study's service: %v, want httpx.ErrStopped", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before NewStudy:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
