package simworld

import (
	"math/rand/v2"
	"slices"
	"time"

	"msgscope/internal/dist"
	"msgscope/internal/platform"
	"msgscope/internal/textgen"
)

// memberListCap bounds how many member identities a group materializes —
// real platform APIs page member lists and cut off far below the largest
// channel sizes, so a 2M-member Telegram channel never yields 2M profiles.
const memberListCap = 10000

// MemberIdx returns the deterministic member identity pool of the group:
// indices into the platform's user pool. The creator is always members[0]'s
// author space; overlap across groups arises from the shared pool.
func (w *World) MemberIdx(g *Group, at time.Time) []int {
	n := w.MembersAt(g, at)
	if n > memberListCap {
		n = memberListCap
	}
	pool := w.userPoolSize[g.Platform]
	if n > pool {
		n = pool
	}
	rng := rand.New(rand.NewPCG(g.noiseSeed, 0x6D656D62)) // "memb"
	// Partial Fisher-Yates via a sparse permutation map: O(n) regardless
	// of how close n is to the pool size.
	perm := make(map[int]int, n)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		j := i + rng.IntN(pool-i)
		vj, ok := perm[j]
		if !ok {
			vj = j
		}
		vi, ok := perm[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		perm[j] = vi
	}
	return out
}

// msgModel is the per-group message-generation model, cached because
// history paging calls Messages many times per group.
type msgModel struct {
	active      []int
	authorZipf  *dist.Zipf
	typeSampler *dist.StringSampler
}

func (w *World) msgModelFor(g *Group) *msgModel {
	if m, ok := w.msgModels.Load(g); ok {
		return m.(*msgModel)
	}
	cfg := w.platformCfg(g.Platform)
	members := w.MemberIdx(g, g.FirstShareAt)
	nActive := int(float64(len(members)) * cfg.ActiveMemberP)
	if nActive < 1 {
		nActive = 1
	}
	m, _ := w.msgModels.LoadOrStore(g, &msgModel{
		active:      members[:nActive],
		authorZipf:  dist.NewZipf(cfg.PosterZipfS, nActive),
		typeSampler: dist.NewStringSampler(cfg.MessageTypes),
	})
	return m.(*msgModel)
}

// msgTextTag separates the body streams from the message streams of the
// same (channel, day): "text".
const msgTextTag = 0x74657874

// Messages generates channel ch of the group in [from, to), sorted by
// (SentAt, Seq). Message authors are drawn from the active subset of the
// member pool with the platform's posting skew, so per-user volumes
// reproduce the paper's concentration (top 1% of members post 31-63% of
// messages).
//
// Each (channel, calendar day) is an independently seeded stream, so a
// message is a pure function of (group, channel, day, index) whatever
// window the caller asks for: history pagers step day-aligned windows and
// pay only for the days they serve. A message body, when enabled, comes
// from its own (channel, day, index) stream too, so it does not depend on
// which request generated it first.
func (w *World) Messages(g *Group, ch int, from, to time.Time) []Message {
	return w.AppendMessages(nil, g, ch, from, to)
}

// AppendMessages appends what Messages(g, ch, from, to) returns to dst and
// returns the extended slice, so a caller paging day by day can generate
// every window into one reused buffer.
func (w *World) AppendMessages(dst []Message, g *Group, ch int, from, to time.Time) []Message {
	if from.Before(g.CreatedAt) {
		from = g.CreatedAt
	}
	if !to.After(from) {
		return dst
	}
	model := w.msgModelFor(g)
	active, authorZipf, typeSampler := model.active, model.authorZipf, model.typeSampler
	rate := g.MsgRates[ch]

	// Both PCGs are reused across streams: Seed resets one to the exact
	// state NewPCG would produce.
	var pcg, textPCG rand.PCG
	dayRng := rand.New(&pcg)
	var tg *textgen.Generator
	if w.Cfg.GenerateMessageText {
		tg = textgen.New(rand.New(&textPCG))
	}
	chSeed := g.noiseSeed ^ uint64(ch)<<32
	for dayStart := from.Truncate(24 * time.Hour); dayStart.Before(to); dayStart = dayStart.Add(24 * time.Hour) {
		dayIdx := uint64(dayStart.Unix() / 86400)
		pcg.Seed(chSeed, dayIdx)
		n := dist.Poisson(dayRng, rate)
		first := len(dst)
		dst = slices.Grow(dst, n)
		for i := 0; i < n; i++ {
			// All draws happen unconditionally so the RNG stream stays
			// aligned no matter how the requested window slices the day.
			at := dayStart.Add(time.Duration(dayRng.Int64N(int64(24 * time.Hour))))
			author := active[authorZipf.Sample(dayRng)-1]
			typ := parseMsgType(typeSampler.Sample(dayRng))
			if at.Before(from) || !at.Before(to) {
				continue
			}
			m := Message{
				GroupCode: g.Code,
				Channel:   ch,
				AuthorIdx: author,
				SentAt:    at,
				Type:      typ,
				Seq:       uint32(ch)<<18 | uint32(i)&0x3FFFF,
			}
			if tg != nil && typ == platform.Text {
				textPCG.Seed(chSeed^msgTextTag, dayIdx<<18|uint64(i))
				m.Text = tg.Message(g.Lang, g.Topic)
			}
			dst = append(dst, m)
		}
		// Time-ordered, as every platform's history API serves them. Days
		// do not overlap, so sorting each day's run sorts the whole slice.
		// Seq breaks same-instant ties; the key is a total order, so the
		// unstable sort has a unique result.
		slices.SortFunc(dst[first:], func(a, b Message) int {
			if c := a.SentAt.Compare(b.SentAt); c != 0 {
				return c
			}
			return int(a.Seq) - int(b.Seq)
		})
	}
	return dst
}

func parseMsgType(s string) platform.MessageType {
	switch s {
	case "text":
		return platform.Text
	case "image":
		return platform.Image
	case "video":
		return platform.Video
	case "audio":
		return platform.Audio
	case "sticker":
		return platform.Sticker
	case "document":
		return platform.Document
	case "contact":
		return platform.Contact
	case "location":
		return platform.Location
	default:
		return platform.Service
	}
}

// UserByIdx materializes the user identity at a pool index, deterministic
// in (platform, idx, world seed). PII attributes follow the platform's
// calibration: WhatsApp members always expose phones, Telegram members only
// on opt-in, Discord members expose linked accounts.
//
// Identities are pure functions of their inputs, so results are memoized
// for the world's lifetime; callers must treat the returned User
// (including the shared Linked slice) as read-only.
func (w *World) UserByIdx(p platform.Platform, idx int) User {
	key := uint64(p)<<32 | uint64(uint32(idx))
	if v, ok := w.userCache.Load(key); ok {
		return v.(User)
	}
	u := w.buildUser(p, idx)
	w.userCache.Store(key, u)
	return u
}

func (w *World) buildUser(p platform.Platform, idx int) User {
	cfg := w.platformCfg(p)
	rng := rand.New(rand.NewPCG(w.Cfg.Seed^uint64(idx)<<20, uint64(p)+0x75736572)) // "user"
	u := User{
		Platform: p,
		Idx:      idx,
		ID:       uint64(idx)*2654435761 + uint64(p) + 1,
		Name:     userName(rng),
	}
	switch p {
	case platform.WhatsApp:
		u.Country = w.waMemberCountry(rng, cfg)
		u.Phone = phoneFor(u.Country, uint64(idx)+1_000_000)
		u.PhoneVisible = true
	case platform.Telegram:
		u.PhoneVisible = dist.Bernoulli(rng, cfg.PhoneVisibleP)
		if u.PhoneVisible {
			u.Country = "OTHER"
			u.Phone = phoneFor(u.Country, uint64(idx)+2_000_000)
		}
	case platform.Discord:
		if dist.Bernoulli(rng, cfg.LinkedAccountP) {
			u.Linked = sampleLinked(rng, w.linkedSamplerFor(p, cfg))
		}
	}
	return u
}

func (w *World) linkedSamplerFor(p platform.Platform, cfg *PlatformConfig) *dist.StringSampler {
	if s := w.linkedSamplers[p]; s != nil {
		return s
	}
	return dist.NewStringSampler(cfg.LinkedAccounts)
}

// sampleLinked draws the connected-account set of a "linker" Discord user:
// one guaranteed account plus extras, proportional to the Table 5 mix.
func sampleLinked(rng *rand.Rand, sampler *dist.StringSampler) []string {
	seen := map[string]struct{}{}
	first := sampler.Sample(rng)
	seen[first] = struct{}{}
	out := []string{first}
	// Conditional extras: linkers average ~2.5 distinct connections so
	// the per-platform marginals land near Table 5 (sum of shares ~0.75
	// per observed user / 30% linkers).
	extra := dist.Poisson(rng, 2.2)
	for i := 0; i < extra; i++ {
		s := sampler.Sample(rng)
		if _, dup := seen[s]; dup {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

func (w *World) waMemberCountry(rng *rand.Rand, cfg *PlatformConfig) string {
	if len(cfg.Countries) == 0 {
		return "OTHER"
	}
	cat := w.countryCats[platform.WhatsApp]
	if cat == nil {
		cat = dist.NewCategorical(countryWeights(cfg))
	}
	return cfg.Countries[cat.Sample(rng)].Key
}

func countryWeights(cfg *PlatformConfig) []float64 {
	ws := make([]float64, len(cfg.Countries))
	for i, c := range cfg.Countries {
		ws[i] = c.Weight
	}
	return ws
}

var nameParts = []string{
	"ada", "bel", "cam", "dor", "eva", "fin", "gus", "hal", "ina", "jon",
	"kat", "lua", "mel", "nia", "oto", "pia", "qui", "rok", "sol", "tam",
}

func userName(rng *rand.Rand) string {
	return nameParts[rng.IntN(len(nameParts))] + nameParts[rng.IntN(len(nameParts))]
}
