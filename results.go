package msgscope

import (
	"fmt"
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/report"
	"msgscope/internal/store"
)

// Platforms lists the messaging platforms in the paper's order.
func Platforms() []string {
	out := make([]string, len(platform.All))
	for i, p := range platform.All {
		out[i] = p.String()
	}
	return out
}

func parsePlatform(name string) (platform.Platform, error) {
	return platform.ParsePlatform(name)
}

// DiscoveryPoint is one day of Figure 1: tweet shares observed, unique
// URLs, and never-before-seen URLs.
type DiscoveryPoint struct {
	Day    int
	All    int
	Unique int
	New    int
}

// Discovery returns the per-day discovery series of one platform
// ("WhatsApp", "Telegram", or "Discord").
func (r *Result) Discovery(platformName string) ([]DiscoveryPoint, error) {
	p, err := parsePlatform(platformName)
	if err != nil {
		return nil, err
	}
	f := r.figure("fig1").(report.Fig1Result)
	out := make([]DiscoveryPoint, r.ds.Days)
	for d := 0; d < r.ds.Days; d++ {
		out[d] = DiscoveryPoint{
			Day:    d,
			All:    int(f.All[p].At(d)),
			Unique: int(f.Unique[p].At(d)),
			New:    int(f.New[p].At(d)),
		}
	}
	return out, nil
}

// GroupSummary is one discovered group URL and its observed lifecycle.
type GroupSummary struct {
	Platform     string
	Code         string
	URL          string
	FirstSeen    time.Time
	TweetCount   int
	Joined       bool
	Revoked      bool
	LifetimeDays float64 // discovery to last alive probe (revoked URLs)
	Members      int     // at first alive observation
	Title        string
}

// Groups returns summaries of all discovered groups on a platform.
func (r *Result) Groups(platformName string) ([]GroupSummary, error) {
	p, err := parsePlatform(platformName)
	if err != nil {
		return nil, err
	}
	list := r.ds.GroupsOf(p)
	var out []GroupSummary
	for i, n := 0, list.Len(); i < n; i++ {
		g := list.At(i)
		gs := GroupSummary{
			Platform:   g.Platform.String(),
			Code:       g.Code,
			URL:        g.Canonical,
			FirstSeen:  g.FirstSeen,
			TweetCount: g.Tweets,
			Joined:     g.Joined,
		}
		var lastAlive time.Time
		list.Obs(i).Each(func(o store.Observation) bool {
			if !o.Alive {
				gs.Revoked = true
				return false
			}
			if gs.Members == 0 {
				gs.Members = o.Members
				gs.Title = o.Title
			}
			lastAlive = o.At
			return true
		})
		if gs.Revoked && !lastAlive.IsZero() {
			gs.LifetimeDays = lastAlive.Sub(g.FirstSeen).Hours() / 24
		}
		out = append(out, gs)
	}
	return out, nil
}

// PIIExposure is one platform's PII summary (Table 4).
type PIIExposure struct {
	Platform      string
	MembersSeen   int
	CreatorsSeen  int
	PhonesExposed int
	PhoneShare    float64
	LinkedExposed int
	LinkedShare   float64
}

// PII returns the per-platform exposure summary.
func (r *Result) PII() []PIIExposure {
	t4 := r.table4()
	out := make([]PIIExposure, len(t4.Report.Exposures))
	for i, e := range t4.Report.Exposures {
		out[i] = PIIExposure{
			Platform:      e.Platform.String(),
			MembersSeen:   e.MembersSeen,
			CreatorsSeen:  e.CreatorsSeen,
			PhonesExposed: e.PhonesExposed,
			PhoneShare:    e.PhoneShare,
			LinkedExposed: e.LinkedExposed,
			LinkedShare:   e.LinkedShare,
		}
	}
	return out
}

// LinkedAccount is one row of Table 5.
type LinkedAccount struct {
	Platform string // Twitch, Steam, ...
	Users    int
	Share    float64
}

// LinkedAccounts returns the Discord linked-account breakdown.
func (r *Result) LinkedAccounts() []LinkedAccount {
	t5 := r.table5()
	out := make([]LinkedAccount, len(t5.Rows))
	for i, row := range t5.Rows {
		out[i] = LinkedAccount{Platform: row.Platform, Users: row.Users, Share: row.Share}
	}
	return out
}

// Topic is one extracted LDA topic.
type Topic struct {
	Share float64 // fraction of tweets with this dominant topic
	Words []string
}

// Topics fits LDA over one platform's English tweets and returns the
// topics sorted by share (the Table 3 analysis, parameterized).
func (r *Result) Topics(platformName string, k, iterations int) ([]Topic, error) {
	p, err := parsePlatform(platformName)
	if err != nil {
		return nil, err
	}
	t3 := report.Table3(r.ds, report.Table3Config{
		Topics:     k,
		Iterations: iterations,
		Seed:       r.study.Cfg.Seed,
		MaxTweets:  4000,
	})
	sums, ok := t3.Topics[p]
	if !ok {
		return nil, fmt.Errorf("msgscope: no English tweets for %s", platformName)
	}
	out := make([]Topic, len(sums))
	for i, s := range sums {
		out[i] = Topic{Share: s.Share, Words: s.Words}
	}
	return out, nil
}

// MessageStats summarizes joined-group messaging on one platform.
type MessageStats struct {
	Platform    string
	Messages    int
	ActiveUsers int
	Top1Share   float64 // messages contributed by the top 1% of users
	TypeShares  map[string]float64
}

// Messaging returns per-platform message statistics (Figures 8-9).
func (r *Result) Messaging() []MessageStats {
	f8 := r.figure("fig8").(report.Fig8Result)
	f9 := r.figure("fig9").(report.Fig9Result)
	t2 := r.table2()
	out := make([]MessageStats, 0, len(platform.All))
	for i, p := range platform.All {
		ms := MessageStats{
			Platform:    p.String(),
			Messages:    t2.Rows[i].Messages,
			ActiveUsers: f9.ActiveUsers[p],
			Top1Share:   f9.Top1Share[p],
			TypeShares:  map[string]float64{},
		}
		for _, kv := range f8.Types[p].Sorted() {
			ms.TypeShares[kv.K] = f8.Types[p].Share(kv.K)
		}
		out = append(out, ms)
	}
	return out
}
