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

// TestAppendMessagesKeepsPrefix: AppendMessages leaves dst's rows alone and
// appends exactly what Messages returns, for windows that cut days
// mid-way and for one buffer reused across the successive day-aligned
// windows a history handler steps through.
func TestAppendMessagesKeepsPrefix(t *testing.T) {
	cfg := DefaultConfig(42, 0.004)
	cfg.GenerateMessageText = true
	w := New(cfg)
	now := w.Cfg.Start.Add(time.Duration(w.Cfg.Days) * 24 * time.Hour)
	rng := rand.New(rand.NewPCG(5, 9))
	prefix := []Message{{GroupCode: "prefix", Seq: 1}, {GroupCode: "prefix", Channel: 2, Seq: 7, Text: "kept"}}
	var buf []Message
	msgs := 0
	for _, p := range platform.All {
		for _, g := range w.Groups[p][:20] {
			ch := g.Channels - 1
			for _, win := range diffWindows(rng, g, now) {
				want := w.Messages(g, ch, win[0], win[1])
				// Clipped, so the first append must reallocate and copy
				// the prefix; then again into spare capacity.
				for _, dst := range [][]Message{slices.Clip(slices.Clone(prefix)), append(make([]Message, 0, 64), prefix...)} {
					got := w.AppendMessages(dst, g, ch, win[0], win[1])
					if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
						t.Fatalf("%v %s ch %d [%v, %v): appended %d messages onto the prefix, Messages has %d",
							p, g.Code, ch, win[0], win[1], len(got)-len(prefix), len(want))
					}
				}
				msgs += len(want)
			}
			for cursor, day := now, 0; cursor.After(g.CreatedAt) && day < 30; day++ {
				from := cursor.Add(-1).Truncate(24 * time.Hour)
				if from.Before(g.CreatedAt) {
					from = g.CreatedAt
				}
				buf = w.AppendMessages(buf[:0], g, ch, from, cursor)
				if want := w.Messages(g, ch, from, cursor); !slices.Equal(buf, want) {
					t.Fatalf("%v %s ch %d [%v, %v): reused buffer holds %d messages, Messages has %d",
						p, g.Code, ch, from, cursor, len(buf), len(want))
				}
				msgs += len(buf)
				cursor = from
			}
		}
	}
	if msgs < 1000 {
		t.Fatalf("only %d messages compared", msgs)
	}
}

// TestAppendMessagesAllocs bounds generating a busy channel-day into a
// buffer that already has room for it: the two PCG states, which escape
// through rand.Source, are all it allocates.
func TestAppendMessagesAllocs(t *testing.T) {
	w := New(DefaultConfig(42, 0.004))
	var busy *Group
	for _, g := range w.Groups[platform.Telegram] {
		if busy == nil || g.MsgRates[0] > busy.MsgRates[0] {
			busy = g
		}
	}
	day := w.Cfg.Start.Add(2 * 24 * time.Hour)
	buf := w.AppendMessages(nil, busy, 0, day, day.Add(24*time.Hour))
	if len(buf) < 100 {
		t.Fatalf("busiest Telegram chat has %d messages that day, want a fuller day", len(buf))
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf = w.AppendMessages(buf[:0], busy, 0, day, day.Add(24*time.Hour))
	})
	if allocs > 2 {
		t.Errorf("AppendMessages of %d messages into a large enough buffer allocated %.1f objects/op, want at most 2", len(buf), allocs)
	}
}
