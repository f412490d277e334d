package msgscope_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"msgscope"
	"msgscope/internal/analysis/lda"
	"msgscope/internal/analysis/textproc"
	"msgscope/internal/core"
	"msgscope/internal/faults"
)

// TestSerialAndParallelRunsRenderIdentically is the determinism contract
// of the parallel collection pipeline: at the same seed, a run with every
// fan-out forced serial and a run with the default parallel fan-outs must
// produce byte-identical report output. The order-sensitive experiments
// are the interesting ones — Table 3's LDA subsamples a collection-order
// prefix of the tweet slice, and Figures 8/9 walk the message slice — so
// any ingest-order divergence shows up here.
func TestSerialAndParallelRunsRenderIdentically(t *testing.T) {
	ctx := context.Background()
	base := msgscope.Options{Seed: 42, Scale: 0.01, Days: 10}

	serialOpts := base
	serialOpts.SearchWorkers, serialOpts.CollectWorkers = 1, 1
	serial, err := msgscope.Run(ctx, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := msgscope.Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{"table1", "table2", "table3", "fig1", "fig6", "fig8", "fig9"} {
		if s, p := serial.Render(id), parallel.Render(id); s != p {
			t.Errorf("%s diverges between serial and parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", id, s, p)
		}
	}
}

// TestTextRunsAreDeterministic: with message bodies enabled, two runs at
// the same seed save byte-identical messages. Each body is drawn from its
// message's own (group, channel, day, index) stream, so it cannot depend
// on the order in which concurrent history requests reach the generator.
func TestTextRunsAreDeterministic(t *testing.T) {
	opts := msgscope.Options{Seed: 7, Scale: 0.01, Days: 12, GenerateMessageText: true}
	var saved [2][]byte
	for i := range saved {
		res, err := msgscope.Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := res.SaveDataset(dir); err != nil {
			t.Fatal(err)
		}
		if saved[i], err = os.ReadFile(filepath.Join(dir, "messages.jsonl")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(saved[0], []byte(`"text":`)) {
		t.Fatal("the -text run saved no message bodies")
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatalf("messages.jsonl differs between identical -text runs (%d vs %d bytes)", len(saved[0]), len(saved[1]))
	}
}

// TestLDAWorkerCountInvariance is the analysis-phase half of the
// determinism contract: both parallel Gibbs samplers — the sparse s/r/q
// decomposition and the alias-table Metropolis–Hastings chain — must
// produce a byte-identical fitted model at any worker count, because
// Table 3's topics must not depend on the machine it ran on. The corpus
// goes through the production tokenizer path so the test pins the whole
// text→topics chain, not just the sampler.
func TestLDAWorkerCountInvariance(t *testing.T) {
	words := []string{
		"join", "group", "whatsapp", "telegram", "discord", "invite", "link",
		"crypto", "signal", "free", "news", "chat", "deal", "click", "earn",
		"video", "game", "music", "live", "today",
	}
	var texts []string
	state := uint64(42)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for d := 0; d < 600; d++ {
		var s string
		for w, n := 0, 6+next(10); w < n; w++ {
			s += words[next(len(words))] + " "
		}
		texts = append(texts, s+fmt.Sprintf("tag%d", next(50)))
	}
	corpus := textproc.NewCorpus(textproc.NewTokenizer(), texts)

	// fingerprint captures everything Table 3 and the extensions read off
	// a fitted model: exact per-document assignments, topic shares, and
	// ranked word summaries. (The Model struct itself records the worker
	// count in its config, so models fitted at different widths are
	// compared by their observable state.)
	fingerprint := func(sampler lda.Sampler, workers int) any {
		m := lda.Fit(corpus, lda.Config{
			Topics: 10, Iterations: 60, Seed: 42, Workers: workers, Sampler: sampler,
		})
		docs := make([]int, 600)
		for d := range docs {
			docs[d] = m.DocTopic(d)
		}
		return []any{docs, m.TopicShares(), m.Summaries(10), m.Perplexity()}
	}
	for _, sampler := range []lda.Sampler{lda.SamplerSparse, lda.SamplerAlias} {
		want := fingerprint(sampler, 1)
		for _, workers := range []int{4, 16} {
			if got := fingerprint(sampler, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("lda.Fit(%s) with %d workers diverges from the serial fit", sampler, workers)
			}
		}
	}
}

// TestRaceHammerFloodBurstBreakers drives 16 message-collection workers
// into a rate-limit burst that opens every platform's shared circuit
// breaker mid-collection. Run under -race (`make race`), it exercises the
// contended paths of the retry layer — concurrent breaker open/close
// transitions, shared virtual-clock advances from the waiters, and the
// injector's atomic fault counters — and asserts the burst was actually
// absorbed: the run completes, breakers both opened and closed, and
// rate-limit waits were recorded.
func TestRaceHammerFloodBurstBreakers(t *testing.T) {
	start := time.Date(2020, 4, 8, 0, 0, 0, 0, time.UTC)
	days := 3
	s, err := core.NewStudy(core.Config{
		Seed:           9,
		Scale:          0.01,
		Days:           days,
		JoinDay:        1, // join before the burst; collection runs into it
		CollectWorkers: 16,
		Faults: &faults.Plan{
			Seed: 9,
			FloodBursts: []faults.Window{
				{From: start.Add(time.Duration(days) * 24 * time.Hour),
					To: start.Add(time.Duration(days)*24*time.Hour + 5*time.Minute)},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("run under flood burst failed: %v", err)
	}
	js := s.JoinStats()
	if js.Joined == 0 {
		t.Fatal("no groups joined; the burst was never exercised")
	}
	if js.FloodWaits == 0 {
		t.Fatal("no flood waits recorded; the burst missed the collection phase")
	}
	var opens, closes int64
	for _, bs := range s.BreakerStats() {
		opens += bs.Opens
		closes += bs.Closes
	}
	if opens == 0 || closes == 0 {
		t.Fatalf("breakers never cycled under the burst: opens=%d closes=%d", opens, closes)
	}
}
