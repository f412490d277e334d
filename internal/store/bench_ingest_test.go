package store

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"msgscope/internal/platform"
	"msgscope/internal/prof"
)

// Ingest benchmarks for the hot record families. Each benchmark generates
// records with a deterministic, paper-shaped vocabulary (bounded user,
// group, and language pools; ~90-byte tweet texts) and reports two custom
// metrics alongside ns/op:
//
//	ns/rec    — ingest cost per record (generation included; it is the
//	            same cheap PCG arithmetic in every layout, so layout
//	            changes dominate the diff)
//	liveB/rec — live heap bytes per record retained by the store after a
//	            GC, i.e. the resident cost of the layout. Record
//	            generation is transient (one reused batch), so string
//	            data survives the GC only if the store keeps it alive.
//
// `make bench-compare` gates liveB/rec like any other metric: a >20%
// regression in bytes/record fails CI the same way ns/op growth does.
//
// MSGSCOPE_BENCH_SCALE multiplies the record counts (default 1.0 =
// 100K tweets / 200K messages; the bench-scale target runs 10x = 1M
// tweets at -benchtime=1x).

// benchScale reads the scale multiplier for the ingest benchmarks.
func benchScale() float64 {
	s := os.Getenv("MSGSCOPE_BENCH_SCALE")
	if s == "" {
		return 1.0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 1.0
	}
	return v
}

// benchSweeps reads the monitoring horizon for the groups benchmark
// (default: the paper's 38 daily sweeps). MSGSCOPE_BENCH_SWEEPS stretches
// it for the observation-heavy bench-scale smoke, standing in for the
// multi-year collection horizons of TeleScope-style longitudinal studies.
func benchSweeps() int {
	s := os.Getenv("MSGSCOPE_BENCH_SWEEPS")
	if s == "" {
		return 38
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return 38
	}
	return v
}

// benchPCG is a tiny deterministic generator so record synthesis costs the
// same few ns in every layout under test.
type benchPCG uint64

func (p *benchPCG) next() uint64 {
	*p = *p*6364136223846793005 + 1442695040888963407
	return uint64(*p >> 17)
}

func (p *benchPCG) intn(n int) int { return int(p.next() % uint64(n)) }

var benchLangs = []string{"en", "es", "pt", "hi", "id", "ar", "tr", "fr", "de", "und"}

// benchText fills buf with a deterministic ~90-byte pseudo-tweet.
func benchText(buf []byte, rng *benchPCG) []byte {
	buf = buf[:0]
	for w, n := 0, 12+rng.intn(6); w < n; w++ {
		if w > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, "word"...)
		buf = strconv.AppendUint(buf, rng.next()%5000, 10)
	}
	return buf
}

// fillTweetBatch regenerates batch[:n] in place, reusing backing storage
// where it can. Strings still allocate per record — exactly like the
// collector's decode path — which is what makes the live-bytes metric
// honest: layouts that alias input strings keep them alive, layouts that
// copy into arenas drop them.
// The pools scale with the corpus so the vocabulary keeps the paper's
// shape at every -scale: ~n/6 distinct tweeting users and ~n/5 distinct
// platform-scoped groups (2.2M tweets carried ~450K distinct URLs), and
// for messages ~n/100 groups (8.3M messages from ~5K joined groups).
func poolFor(n, div int) int {
	if p := n / div; p > 64 {
		return p
	}
	return 64
}

func fillTweetBatch(batch []TweetIngest, rng *benchPCG, base time.Time, startID uint64, n int, textBuf []byte) []byte {
	userPool, groupPool := poolFor(n, 6), poolFor(n, 15)
	for i := range batch {
		textBuf = benchText(textBuf, rng)
		batch[i] = TweetIngest{Tweet: TweetRecord{
			ID:        startID + uint64(i),
			UserID:    "u" + strconv.Itoa(rng.intn(userPool)),
			CreatedAt: base.Add(time.Duration(startID+uint64(i)) * time.Second),
			Lang:      benchLangs[rng.intn(len(benchLangs))],
			Hashtags:  rng.intn(3),
			Mentions:  rng.intn(4),
			Retweet:   rng.intn(2) == 0,
			Text:      string(textBuf),
			Platform:  platform.Platform(rng.intn(3) + 1),
			GroupCode: "grp" + strconv.Itoa(rng.intn(groupPool)),
			Source:    SourceSearch,
		}}
	}
	return textBuf
}

func fillMessageBatch(batch []MessageRecord, rng *benchPCG, base time.Time, start uint64, n int) {
	groupPool, authorPool := poolFor(n, 300), poolFor(n, 7)
	for i := range batch {
		batch[i] = MessageRecord{
			Platform:  platform.Platform(rng.intn(3) + 1),
			GroupCode: "grp" + strconv.Itoa(rng.intn(groupPool)),
			AuthorKey: uint64(rng.intn(authorPool)),
			SentAt:    base.Add(time.Duration(start+uint64(i)) * time.Second),
			Type:      platform.MessageType(rng.intn(6)),
		}
	}
}

func fillUserBatch(batch []UserRecord, rng *benchPCG, n int) {
	countries := []string{"BR", "NG", "ID", "IN", "SA", "MX", "AR", "US"}
	keyPool := poolFor(n, 1)
	for i := range batch {
		batch[i] = UserRecord{
			Platform:  platform.Platform(rng.intn(3) + 1),
			Key:       uint64(rng.intn(keyPool) + 1),
			PhoneHash: HashPhone("+55" + strconv.Itoa(rng.intn(keyPool))),
			Country:   countries[rng.intn(len(countries))],
		}
	}
}

// liveBytes returns the live heap delta attributable to build(), which
// must return the object to keep alive.
func liveBytes(build func() any) (any, uint64) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	obj := build()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return obj, 0
	}
	return obj, after.HeapAlloc - before.HeapAlloc
}

const ingestBatchSize = 1024

func BenchmarkStoreIngest(b *testing.B) {
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	scale := benchScale()

	b.Run("tweets", func(b *testing.B) {
		n := int(100_000 * scale)
		batch := make([]TweetIngest, ingestBatchSize)
		var textBuf []byte
		buildStore := func() any {
			s := New()
			rng := benchPCG(42)
			for done := 0; done < n; done += len(batch) {
				if rem := n - done; rem < len(batch) {
					batch = batch[:rem]
				}
				textBuf = fillTweetBatch(batch, &rng, base, uint64(done+1), n, textBuf)
				s.AddTweetBatch(batch)
			}
			return s
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = buildStore()
		}
		b.StopTimer()
		obj, bytes := liveBytes(buildStore)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rec")
		b.ReportMetric(float64(bytes)/float64(n), "liveB/rec")
		runtime.KeepAlive(obj)
	})

	b.Run("messages", func(b *testing.B) {
		n := int(200_000 * scale)
		batch := make([]MessageRecord, ingestBatchSize)
		buildStore := func() any {
			s := New()
			rng := benchPCG(43)
			for done := 0; done < n; done += len(batch) {
				if rem := n - done; rem < len(batch) {
					batch = batch[:rem]
				}
				fillMessageBatch(batch, &rng, base, uint64(done), n)
				s.AddMessageBatch(batch)
			}
			return s
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = buildStore()
		}
		b.StopTimer()
		obj, bytes := liveBytes(buildStore)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rec")
		b.ReportMetric(float64(bytes)/float64(n), "liveB/rec")
		runtime.KeepAlive(obj)
	})

	// groups+observations: n discovered groups monitored over benchSweeps
	// daily probes. The generator mirrors the paper's lifecycle shape:
	// every group gets a stable title, ~40% die partway through the window
	// (one revoked probe, then monitoring stops), WhatsApp landing pages
	// leak a creator phone hash + country each probe, Discord invites carry
	// the inviter key and snowflake creation date, and ~2% of groups are
	// joined. Records = groups + observations appended.
	b.Run("groups", func(b *testing.B) {
		n := int(20_000 * scale)
		sweeps := benchSweeps()
		nRecs := 0
		buildStore := func() any {
			s := New()
			rng := benchPCG(45)
			nRecs = 0
			base2 := base
			type meta struct {
				p        platform.Platform
				code     string
				lifespan int
				phoneH   string
				country  string
			}
			gs := make([]meta, n)
			countries := []string{"BR", "NG", "ID", "IN", "SA", "MX", "AR", "US"}
			for i := range gs {
				p := platform.Platform(rng.intn(3) + 1)
				code := "grp" + strconv.Itoa(i)
				lifespan := sweeps
				if rng.intn(100) < 40 {
					lifespan = rng.intn(sweeps)
				}
				gs[i] = meta{p: p, code: code, lifespan: lifespan,
					country: countries[rng.intn(len(countries))]}
				if p == platform.WhatsApp {
					gs[i].phoneH = HashPhone("+55" + strconv.Itoa(i))
				}
				s.groups.put(&GroupRecord{
					Platform:    p,
					Code:        code,
					Canonical:   "https://chat.example/invite/" + code,
					FirstSeen:   base2,
					LastSeen:    base2,
					Tweets:      1 + rng.intn(5),
					SeenTwitter: true,
				})
				nRecs++
				if rng.intn(50) == 0 {
					s.MarkJoined(p, code, func(g *GroupRecord) {
						g.JoinedAt = base2.Add(24 * time.Hour)
						g.CreatedAt = base2.Add(-240 * time.Hour)
						g.MemberCount = 20 + rng.intn(200)
						g.Channels = 1
					})
				}
			}
			for sweep := 0; sweep < sweeps; sweep++ {
				at := base2.Add(time.Duration(sweep*24) * time.Hour)
				for i := range gs {
					g := &gs[i]
					if sweep > g.lifespan {
						continue // observed revoked; monitoring stopped
					}
					o := Observation{At: at, Alive: sweep < g.lifespan}
					if o.Alive {
						o.Title = "Group Chat " + g.code
						o.Members = 20 + rng.intn(480)
						switch g.p {
						case platform.WhatsApp:
							o.CreatorPhoneH = g.phoneH
							o.CreatorKey = g.phoneH
							o.CreatorCountry = g.country
						case platform.Telegram:
							o.Online = rng.intn(o.Members)
							o.IsChannel = i%8 == 0
						case platform.Discord:
							o.Online = rng.intn(o.Members)
							o.CreatorKey = "dc-inviter-" + strconv.Itoa(i)
							o.CreatedAt = base2.Add(-time.Duration(rng.intn(10000)) * time.Hour)
						}
					}
					s.AddObservation(g.p, g.code, o)
					nRecs++
				}
			}
			return s
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = buildStore()
		}
		b.StopTimer()
		obj, bytes := liveBytes(buildStore)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nRecs), "ns/rec")
		b.ReportMetric(float64(bytes)/float64(nRecs), "liveB/rec")
		runtime.KeepAlive(obj)
	})

	b.Run("users", func(b *testing.B) {
		n := int(50_000 * scale)
		batch := make([]UserRecord, ingestBatchSize)
		buildStore := func() any {
			s := New()
			rng := benchPCG(44)
			for done := 0; done < n; done += len(batch) {
				if rem := n - done; rem < len(batch) {
					batch = batch[:rem]
				}
				fillUserBatch(batch, &rng, n)
				s.UpsertUserBatch(batch)
			}
			return s
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = buildStore()
		}
		b.StopTimer()
		obj, bytes := liveBytes(buildStore)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/rec")
		b.ReportMetric(float64(bytes)/float64(n), "liveB/rec")
		runtime.KeepAlive(obj)
	})
}

// BenchmarkStoreIngestSpill is the memory-budget acceptance gate: the same
// tweet+message corpus as BenchmarkStoreIngest, ingested under a spill
// budget with periodic SpillCheck sweeps (the engine's hourly cadence,
// compressed). Alongside ns/rec it reports peak RSS, the runtime's live
// heap and the segment bytes in MB, and `make bench-compare` gates them
// like any other lower-is-better metric. Peak RSS is the kernel's
// watermark of one untimed ingest in a fresh child process (see
// spillPeakRSS), so it depends neither on b.N nor on what earlier
// benchmarks left resident. Knobs:
//
//	MSGSCOPE_SPILL_BUDGET   — spill budget in bytes (default 8 MiB, small
//	                          enough that the default corpus seals often)
//	MSGSCOPE_BENCH_RSS_MAX  — hard ceiling in bytes; the benchmark FAILS
//	                          if peak RSS exceeds it (bench-scale sets it)
func BenchmarkStoreIngestSpill(b *testing.B) {
	var rssMax int64
	if s := os.Getenv("MSGSCOPE_BENCH_RSS_MAX"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			rssMax = v
		}
	}
	w := newSpillIngest()
	var stats SpillStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if stats, err = w.run(b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats.Segments == 0 {
		b.Fatalf("budget %d sealed no segments over %d+%d records; the gate is vacuous", w.budget, w.nT, w.nM)
	}
	runtime.GC()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.nT+w.nM), "ns/rec")
	b.ReportMetric(float64(prof.HeapLiveBytes())/float64(1<<20), "heapLive-MB")
	b.ReportMetric(float64(stats.SegBytes)/float64(1<<20), "segDisk-MB")
	peak := spillPeakRSS(b)
	if peak > 0 {
		b.ReportMetric(float64(peak)/float64(1<<20), "peakRSS-MB")
	}
	if rssMax > 0 && peak > rssMax {
		b.Fatalf("peak RSS %d bytes exceeds MSGSCOPE_BENCH_RSS_MAX %d", peak, rssMax)
	}
}

// spillIngest is BenchmarkStoreIngestSpill's workload: nT tweets, then nM
// messages, into a fresh store under a spill budget, with a SpillCheck
// sweep every 8 tweet batches. The batches are reused across runs.
type spillIngest struct {
	budget int64
	nT, nM int
	tweets []TweetIngest
	msgs   []MessageRecord
	text   []byte
}

func newSpillIngest() *spillIngest {
	w := &spillIngest{
		budget: 8 << 20,
		nT:     int(100_000 * benchScale()),
		nM:     int(200_000 * benchScale()),
		tweets: make([]TweetIngest, ingestBatchSize),
		msgs:   make([]MessageRecord, ingestBatchSize),
	}
	if s := os.Getenv("MSGSCOPE_SPILL_BUDGET"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v > 0 {
			w.budget = v
		}
	}
	return w
}

// run ingests the corpus into a fresh store spilling into dir and returns
// the store's spill stats.
func (w *spillIngest) run(dir string) (SpillStats, error) {
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	s := New()
	if err := s.EnableSpill(SpillConfig{Dir: dir, Budget: w.budget}); err != nil {
		return SpillStats{}, err
	}
	rng := benchPCG(42)
	for done, sweep := 0, 0; done < w.nT; sweep++ {
		batch := w.tweets[:min(len(w.tweets), w.nT-done)]
		w.text = fillTweetBatch(batch, &rng, base, uint64(done+1), w.nT, w.text)
		s.AddTweetBatch(batch)
		done += len(batch)
		if (sweep+1)%8 == 0 {
			if err := s.SpillCheck(); err != nil {
				return SpillStats{}, err
			}
		}
	}
	rng = benchPCG(43)
	for done := 0; done < w.nM; {
		batch := w.msgs[:min(len(w.msgs), w.nM-done)]
		fillMessageBatch(batch, &rng, base, uint64(done), w.nM)
		s.AddMessageBatch(batch) // self-seals past budget/2 on its own
		done += len(batch)
	}
	if err := s.SpillCheck(); err != nil {
		return SpillStats{}, err
	}
	return s.SpillStats(), nil
}

// spillRSSChild, set in the environment, turns this test binary into
// spillPeakRSS's child: TestMain runs one spill ingest, prints the
// process's peak RSS and exits.
const spillRSSChild = "MSGSCOPE_SPILL_RSS_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(spillRSSChild) != "" {
		os.Exit(runSpillRSSChild())
	}
	os.Exit(m.Run())
}

func runSpillRSSChild() int {
	dir, err := os.MkdirTemp("", "spill-rss-")
	if err == nil {
		_, err = newSpillIngest().run(dir)
		os.RemoveAll(dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(prof.PeakRSSBytes())
	return 0
}

// spillPeakRSS re-executes this test binary to run one spill ingest in a
// fresh process, five times, and returns the median of those processes'
// peak RSS (0 where the platform does not report it). Each peak is of one
// ingest: this process keeps every timed iteration's segments mapped, and
// its watermark also holds whatever earlier benchmarks left resident. One
// child's peak still varies by ~±15% with GC timing; the median of five
// keeps an A/A comparison inside the 20% gate. The children inherit the
// environment, so the scale, budget and GOMEMLIMIT knobs apply to them.
func spillPeakRSS(b *testing.B) int64 {
	peaks := make([]int64, 5)
	for i := range peaks {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), spillRSSChild+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			b.Fatalf("spill RSS child: %v: %s", err, stderr.String())
		}
		if peaks[i], err = strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64); err != nil {
			b.Fatalf("spill RSS child printed %q: %v", out, err)
		}
	}
	slices.Sort(peaks)
	return peaks[len(peaks)/2]
}

// BenchmarkStoreIngestParallel drives AddTweetBatch and UpsertUserBatch
// from GOMAXPROCS goroutines at once, so the -cpus matrix can measure how
// ingest scales with cores. Each goroutine builds its own New() store per
// iteration, so the goroutines never share a lock: this measures
// independent stores ingesting side by side (allocator and GC pressure),
// not contention on one store's family locks.
func BenchmarkStoreIngestParallel(b *testing.B) {
	base := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	n := int(20_000 * benchScale())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		batch := make([]TweetIngest, ingestBatchSize)
		users := make([]UserRecord, ingestBatchSize/4)
		var textBuf []byte
		seed := benchPCG(uint64(os.Getpid()))
		for pb.Next() {
			s := New()
			rng := benchPCG(seed.next())
			for done := 0; done < n; done += len(batch) {
				textBuf = fillTweetBatch(batch, &rng, base, uint64(done+1), n, textBuf)
				s.AddTweetBatch(batch)
				fillUserBatch(users, &rng, n)
				s.UpsertUserBatch(users)
			}
		}
	})
}

var _ = fmt.Sprintf // keep fmt for debug printing during development
