package lda

import (
	"math"
	"testing"

	"msgscope/internal/analysis/textproc"
)

// coherenceFixture builds a corpus with hand-countable document
// frequencies and a one-topic model whose TopWords order is pinned by
// synthetic counts: apple(5) > banana(4) > cherry(3).
//
// Document frequencies over the 5 docs: D(apple)=3, D(banana)=2,
// D(cherry)=1, D(apple,banana)=1, cherry co-occurs with nothing.
func coherenceFixture(t *testing.T) (*Model, *textproc.Corpus) {
	t.Helper()
	c := textproc.NewCorpus(textproc.NewTokenizer(), []string{
		"apple banana",
		"apple",
		"apple",
		"banana",
		"cherry",
	})
	m := &Model{
		cfg:   Config{Topics: 1}.withDefaults(),
		vocab: c.Vocab,
		docs:  c.Docs,
		nwt:   make([]int, c.Vocab.Size()),
	}
	for w, n := range map[string]int{"apple": 5, "banana": 4, "cherry": 3} {
		id, ok := c.Vocab.Lookup(w)
		if !ok {
			t.Fatalf("fixture word %q missing from vocab", w)
		}
		m.nwt[id] = n
	}
	return m, c
}

// TestCoherenceUMassHandComputed pins UMass coherence to values computed
// by hand from the fixture's document counts.
func TestCoherenceUMassHandComputed(t *testing.T) {
	m, c := coherenceFixture(t)

	// Top-2 words: one pair (banana|apple) = log((D(a,b)+1)/D(a)) = log(2/3).
	if got, want := m.Coherence(c, 0, 2), math.Log(2.0/3.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("UMass top-2 = %v, want %v", got, want)
	}
	// Top-3 adds the two zero-co-occurrence cherry pairs:
	// log(1/D(apple)) and log(1/D(banana)).
	want := (math.Log(2.0/3.0) + math.Log(1.0/3.0) + math.Log(1.0/2.0)) / 3
	if got := m.Coherence(c, 0, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("UMass top-3 = %v, want %v", got, want)
	}
}

// TestCoherenceNPMIHandComputed pins NPMI coherence to hand-computed
// values: the (apple,banana) pair from its exact probabilities, and the
// never-co-occurring cherry pairs at the −1 limit.
func TestCoherenceNPMIHandComputed(t *testing.T) {
	m, c := coherenceFixture(t)

	// p(a,b)=1/5, p(a)=3/5, p(b)=2/5 over N=5 docs:
	// NPMI = log(p(a,b)/(p(a)p(b))) / −log p(a,b) = log(5/6)/log(5).
	npmiAB := math.Log(5.0/6.0) / math.Log(5.0)
	if got := m.NPMICoherence(c, 0, 2); math.Abs(got-npmiAB) > 1e-12 {
		t.Errorf("NPMI top-2 = %v, want %v", got, npmiAB)
	}
	// Cherry pairs never co-occur: each contributes exactly −1.
	want := (npmiAB - 2) / 3
	if got := m.NPMICoherence(c, 0, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("NPMI top-3 = %v, want %v", got, want)
	}
	if got := m.NPMICoherence(c, 0, 3); got < -1 || got > 1 {
		t.Errorf("NPMI %v outside [-1,1]", got)
	}
}

// TestCoherenceNPMIPerfectPair: two words appearing in exactly the same
// (strict subset of) documents approach the +1 limit exactly under
// document-count estimation.
func TestCoherenceNPMIPerfectPair(t *testing.T) {
	c := textproc.NewCorpus(textproc.NewTokenizer(), []string{
		"apple banana", "apple banana", "apple banana", "cherry",
	})
	m := &Model{
		cfg:   Config{Topics: 1}.withDefaults(),
		vocab: c.Vocab,
		docs:  c.Docs,
		nwt:   make([]int, c.Vocab.Size()),
	}
	for w, n := range map[string]int{"apple": 5, "banana": 4} {
		id, _ := c.Vocab.Lookup(w)
		m.nwt[id] = n
	}
	// p(a)=p(b)=p(a,b)=3/4: PMI = log(4/3) = −log p(a,b) exactly.
	if got := m.NPMICoherence(c, 0, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("NPMI of a perfectly co-occurring pair = %v, want 1", got)
	}
}

// TestCoherenceDegenerateNPMI mirrors the UMass degenerate cases.
func TestCoherenceDegenerateNPMI(t *testing.T) {
	m, c := coherenceFixture(t)
	if got := m.NPMICoherence(c, 0, 1); got != 0 {
		t.Errorf("single-word topic NPMI = %v, want 0", got)
	}
	empty := textproc.NewCorpus(textproc.NewTokenizer(), nil)
	me := &Model{cfg: Config{Topics: 1}.withDefaults(), vocab: empty.Vocab, nwt: []int{}}
	if got := me.NPMICoherence(empty, 0, 5); got != 0 {
		t.Errorf("empty-corpus NPMI = %v, want 0", got)
	}
}

// TestCoherenceParityDenseAlias is the topic-quality half of the alias
// gate: on the seed-42 paper-shaped corpus, converged dense and alias
// fits must land in the same coherence basin under both measures — the
// MH chain may differ float-for-float from the exact-conditional oracle,
// but not in topic quality.
func TestCoherenceParityDenseAlias(t *testing.T) {
	c := mixedCorpus(400)
	cfg := Config{Topics: 8, Iterations: 120, Seed: 42}.withDefaults()
	md, ma := fitDense(c, cfg), fitAlias(c, cfg)

	// One-sided gates: the MH chain may land in a different (even better)
	// local mode, but must not lose topic quality against the exact
	// conditional. Both scores are higher-is-better.
	ud, ua := md.MeanCoherence(c, 8), ma.MeanCoherence(c, 8)
	t.Logf("UMass: dense %.4f alias %.4f", ud, ua)
	if ua < ud-0.25*math.Abs(ud) {
		t.Errorf("alias UMass coherence worse than dense: dense %.4f alias %.4f", ud, ua)
	}
	nd, na := md.MeanNPMICoherence(c, 8), ma.MeanNPMICoherence(c, 8)
	t.Logf("NPMI: dense %.4f alias %.4f", nd, na)
	if na < nd-0.15 {
		t.Errorf("alias NPMI coherence worse than dense: dense %.4f alias %.4f", nd, na)
	}
}
