package simworld

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"msgscope/internal/dist"
	"msgscope/internal/ids"
	"msgscope/internal/platform"
	"msgscope/internal/textgen"
)

// allChannelMessages is the all-channel generator that the per-channel
// Messages replaced: every channel of the group over every calendar day
// the window touches, sorted by (SentAt, Channel, Seq). It stays here as
// the differential oracle: filtered to one channel it must equal
// Messages for that channel, message for message.
func allChannelMessages(w *World, g *Group, from, to time.Time) []Message {
	if !to.After(from) {
		return nil
	}
	model := w.msgModelFor(g)
	genStart := g.CreatedAt
	if genStart.Before(from) {
		genStart = from
	}
	var out []Message
	var pcg, textPCG rand.PCG
	dayRng := rand.New(&pcg)
	tg := textgen.New(rand.New(&textPCG))
	for dayStart := genStart.Truncate(24 * time.Hour); !dayStart.After(to); dayStart = dayStart.Add(24 * time.Hour) {
		dayIdx := uint64(dayStart.Unix() / 86400)
		for c := 0; c < g.Channels; c++ {
			pcg.Seed(g.noiseSeed^uint64(c)<<32, dayIdx)
			n := dist.Poisson(dayRng, g.MsgRates[c])
			for i := 0; i < n; i++ {
				at := dayStart.Add(time.Duration(dayRng.Int64N(int64(24 * time.Hour))))
				author := model.active[model.authorZipf.Sample(dayRng)-1]
				typ := parseMsgType(model.typeSampler.Sample(dayRng))
				if at.Before(from) || !at.Before(to) || at.Before(g.CreatedAt) {
					continue
				}
				m := Message{
					GroupCode: g.Code,
					Channel:   c,
					AuthorIdx: author,
					SentAt:    at,
					Type:      typ,
					Seq:       uint32(c)<<18 | uint32(i)&0x3FFFF,
				}
				if w.Cfg.GenerateMessageText && typ == platform.Text {
					textPCG.Seed(g.noiseSeed^uint64(c)<<32^msgTextTag, dayIdx<<18|uint64(i))
					m.Text = tg.Message(g.Lang, g.Topic)
				}
				out = append(out, m)
			}
		}
	}
	slices.SortFunc(out, func(a, b Message) int {
		if c := a.SentAt.Compare(b.SentAt); c != 0 {
			return c
		}
		if a.Channel != b.Channel {
			return a.Channel - b.Channel
		}
		return int(a.Seq) - int(b.Seq)
	})
	return out
}

// diffWindows returns the windows the differential test probes for g:
// random spans at nanosecond offsets (never day-aligned), spans that start
// before the group's creation, and, for a guild created before the
// Discord snowflake epoch, spans that start exactly at the epoch floor the
// Discord history endpoint clamps to.
func diffWindows(rng *rand.Rand, g *Group, now time.Time) [][2]time.Time {
	randDur := func(max time.Duration) time.Duration { return time.Duration(1 + rng.Int64N(int64(max))) }
	var ws [][2]time.Time
	life := max(now.Sub(g.CreatedAt), 24*time.Hour)
	for k := 0; k < 4; k++ {
		from := g.CreatedAt.Add(time.Duration(rng.Int64N(int64(life))))
		ws = append(ws, [2]time.Time{from, from.Add(randDur(4 * 24 * time.Hour))})
	}
	before := g.CreatedAt.Add(-randDur(48 * time.Hour))
	ws = append(ws, [2]time.Time{before, g.CreatedAt.Add(randDur(3 * 24 * time.Hour))})
	if epoch := time.UnixMilli(ids.DiscordEpochMS).UTC(); g.Platform == platform.Discord && g.CreatedAt.Before(epoch) {
		ws = append(ws,
			[2]time.Time{epoch, epoch.Add(randDur(3 * 24 * time.Hour))},
			[2]time.Time{epoch.Add(-randDur(24 * time.Hour)), epoch},
		)
	}
	return ws
}

func TestMessagesMatchAllChannelOracle(t *testing.T) {
	for _, text := range []bool{false, true} {
		t.Run(fmt.Sprintf("text=%v", text), func(t *testing.T) {
			cfg := DefaultConfig(42, 0.004)
			cfg.GenerateMessageText = text
			w := New(cfg)
			now := w.Cfg.Start.Add(time.Duration(w.Cfg.Days) * 24 * time.Hour)
			rng := rand.New(rand.NewPCG(13, 17))
			preEpoch, windows, msgs := 0, 0, 0
			for _, p := range platform.All {
				for gi, g := range w.Groups[p] {
					old := g.CreatedAt.Before(time.UnixMilli(ids.DiscordEpochMS))
					if gi >= 30 && !(p == platform.Discord && old) {
						continue
					}
					if p == platform.Discord && old {
						preEpoch++
					}
					for _, win := range diffWindows(rng, g, now) {
						windows++
						all := allChannelMessages(w, g, win[0], win[1])
						for ch := 0; ch < g.Channels; ch++ {
							got := w.Messages(g, ch, win[0], win[1])
							var want []Message
							for _, m := range all {
								if m.Channel == ch {
									want = append(want, m)
								}
							}
							if len(got) != len(want) {
								t.Fatalf("%v %s ch %d [%v, %v): %d messages, oracle %d", p, g.Code, ch, win[0], win[1], len(got), len(want))
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("%v %s ch %d message %d:\n got %+v\nwant %+v", p, g.Code, ch, i, got[i], want[i])
								}
								if text && got[i].Type == platform.Text && got[i].Text == "" {
									t.Fatalf("%v %s ch %d message %d: text message without body", p, g.Code, ch, i)
								}
							}
							msgs += len(got)
						}
					}
				}
			}
			if preEpoch == 0 {
				t.Fatal("world has no pre-epoch Discord guild to probe the floor")
			}
			if msgs < 1000 {
				t.Fatalf("only %d messages compared over %d windows", msgs, windows)
			}
		})
	}
}

// TestMessageTextIndependentOfWindow: a message's body is a function of
// the message, not of the request that generated it, so a day fetched
// whole and the same day fetched in two halves carry identical bodies.
func TestMessageTextIndependentOfWindow(t *testing.T) {
	cfg := DefaultConfig(7, 0.01)
	cfg.GenerateMessageText = true
	w := New(cfg)
	day := w.Cfg.Start.Add(3 * 24 * time.Hour)
	mid := day.Add(13*time.Hour + 17*time.Minute)
	texts := 0
	for _, g := range w.Groups[platform.Telegram][:50] {
		whole := w.Messages(g, 0, day, day.Add(24*time.Hour))
		halves := append(w.Messages(g, 0, day, mid), w.Messages(g, 0, mid, day.Add(24*time.Hour))...)
		if !slices.Equal(whole, halves) {
			t.Fatalf("%s: day split into halves generates different messages", g.Code)
		}
		for _, m := range whole {
			if m.Text != "" {
				texts++
			}
		}
	}
	if texts == 0 {
		t.Fatal("no message bodies generated")
	}
}
