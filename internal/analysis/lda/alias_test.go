package lda

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"strings"
	"testing"

	"msgscope/internal/analysis/textproc"
)

// recountExcluding recomputes the word-topic, doc-topic and topic-total
// counts of the sampler's live state from the raw assignment array, with
// token zi removed — the from-scratch ground truth for the ⁻ⁱ
// superscripts in the MH acceptance ratio.
func recountExcluding(st *aliasSampler, d, zi int) (nwt []int, ndt []int, nt []int) {
	m := st.m
	K := st.K
	nwt = make([]int, st.V*K)
	ndt = make([]int, K)
	nt = make([]int, K)
	for i := range st.z32 {
		if i == zi {
			continue
		}
		k := int(st.z32[i])
		nwt[int(st.tok32[i])*K+k]++
		nt[k]++
	}
	for i := m.docOff[d]; i < m.docOff[d]+m.docLen[d]; i++ {
		if i == zi {
			continue
		}
		ndt[int(st.z32[i])]++
	}
	return nwt, ndt, nt
}

// oracleSampleToken replays one MH token update from first principles:
// the conditional masses come from recountExcluding (not the sampler's
// count rows or cached reciprocals), the proposal replays the same RNG
// stream, and the acceptance uses the textbook ratio
// π = p⁻ⁱ(t)·q(s) / (p⁻ⁱ(s)·q(t)) with a sure accept at π ≥ 1. Returns
// the chosen topic and whether the accept test landed too close to its
// threshold to compare float implementations meaningfully.
func oracleSampleToken(st *aliasSampler, rng *aliasRng, d, zi, w, s int,
	gNWT, gNDT, gNT []int, wordStep bool) (topic int, ambiguous bool) {
	K := st.K
	cond := func(k int) float64 {
		return (float64(gNDT[k]) + st.alpha) *
			(float64(gNWT[w*K+k]) + st.beta) /
			(float64(gNT[k]) + st.betaV)
	}
	// Each token consumes exactly one RNG draw; the proposal and the
	// acceptance uniform split its bits (see sampleToken). The proposal
	// mechanics replay the sampler's; the oracle's independence is in the
	// recounted conditional masses and the textbook division-form ratio.
	var t int
	var qS, qT, uAcc float64
	if wordStep {
		hi, lo := bits.Mul64(rng.next(), uint64(K))
		cell := st.aliasCell[w*K+int(hi)]
		t = int(hi)
		if uint32(lo>>40) >= cell&(aliasOne-1) {
			t = int(cell >> 24)
		}
		if t == s {
			return s, false
		}
		uAcc = float64(lo&(1<<40-1)) * 0x1p-40
		// q_w is the stale distribution the table was built from.
		qS, qT = float64(st.wProp[w*K+s]), float64(st.wProp[w*K+t])
	} else {
		// q_d over the live assignments, which still include token zi at s.
		nd := st.m.docLen[d]
		fnd := float64(nd)
		r := rng.next()
		u := float64(r>>32) * 0x1p-32 * (fnd + st.alphaK)
		if u < fnd {
			t = int(st.z32[st.m.docOff[d]+int(u)])
		} else {
			t = int((u - fnd) * st.invAlpha)
			if t >= K {
				t = K - 1
			}
		}
		if t == s {
			return s, false
		}
		uAcc = float64(uint32(r)) * 0x1p-32
		qS = float64(gNDT[s]) + st.alpha + 1
		qT = float64(gNDT[t]) + st.alpha
	}
	// The sampler's word weights are float32 (wProp) and it groups the
	// float64 products differently from the oracle's recount-based math,
	// so a decision within ~1e-7 relative of the threshold can
	// legitimately differ between the two. The ambiguity band is 1e-6 —
	// an order of magnitude of margin, still well under 1% of draws.
	lhs, rhs := cond(t)*qS, cond(s)*qT
	if closeRel(lhs, rhs, 1e-6) {
		ambiguous = true
	}
	if lhs >= rhs {
		return t, ambiguous
	}
	if closeRel(uAcc*rhs, lhs, 1e-6) {
		ambiguous = true
	}
	if uAcc*rhs < lhs {
		return t, ambiguous
	}
	return s, ambiguous
}

func closeRel(a, b, tol float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return m > 0 && d/m < tol
}

// TestAliasAcceptanceOracle is the exact-acceptance-ratio unit oracle:
// token by token over a partially mixed state, sampleToken must land on
// the same topic as a from-first-principles replay whose conditional
// masses are recounted from the raw assignment array and whose acceptance
// uses the textbook division-form MH ratio. Covers both the packed-row
// and dense-row layouts.
func TestAliasAcceptanceOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		K    int
	}{{"K7", 7}, {"K20", 20}} {
		t.Run(tc.name, func(t *testing.T) {
			c := mixedCorpus(150)
			cfg := Config{Topics: tc.K, Iterations: 1, Seed: 11}.withDefaults()
			m := newModel(c, cfg)
			st := newAliasSampler(m)
			st.initAssignments()
			st.rebuildTables(true)
			st.refresh()

			// wProp must encode exactly the smoothed counts the tables were
			// built from — the acceptance ratio is only exact against the
			// distribution actually proposed.
			for w := 0; w < st.V; w++ {
				for k := 0; k < st.K; k++ {
					want := float32(float64(st.wtCount(w, k)) + st.beta)
					if got := st.wProp[w*st.K+k]; got != want {
						t.Fatalf("wProp[%d,%d] = %v, want %v", w, k, got, want)
					}
				}
			}

			checked, skipped := 0, 0
			for ci := range st.chunks {
				ck := &st.chunks[ci]
				for d := ck.lo; d < ck.hi; d++ {
					if len(m.docs[d]) == 0 {
						continue
					}
					off := m.docOff[d]
					ndtRow := st.ndt[d*st.K:]
					zd := st.z32[off:]
					for zi := off; zi < off+len(m.docs[d]); zi++ {
						w := int(st.tok32[zi])
						s := int(st.z32[zi])
						gNWT, gNDT, gNT := recountExcluding(st, d, zi)
						for _, wordStep := range []bool{true, false} {
							rngA, rngB := ck.rng, ck.rng
							ndtRow[s]--
							got := st.sampleToken(&rngA, zd, len(m.docs[d]), ndtRow, w, s, wordStep)
							ndtRow[s]++
							want, ambiguous := oracleSampleToken(st, &rngB, d, zi, w, s, gNWT, gNDT, gNT, wordStep)
							if ambiguous {
								skipped++
							} else if got != want {
								t.Fatalf("doc %d token %d (w=%d s=%d wordStep=%v): sampleToken=%d oracle=%d",
									d, zi-off, w, s, wordStep, got, want)
							}
							// Advance the real stream so each token sees fresh
							// randomness, leaving counts untouched.
							ck.rng = rngA
							checked++
						}
					}
				}
			}
			if checked < 500 {
				t.Fatalf("only %d tokens checked", checked)
			}
			if skipped > checked/100 {
				t.Fatalf("%d/%d accept tests ambiguous — oracle not discriminating", skipped, checked)
			}
		})
	}
}

// TestAliasFusedMatchesFactored pins the fused sweeps to the factored
// sampleToken reference float for float: a full fit driven through
// sampleToken must reproduce the production fit byte for byte, in both
// word-topic layouts.
func TestAliasFusedMatchesFactored(t *testing.T) {
	for _, K := range []int{6, 20} {
		c := mixedCorpus(300)
		cfg := Config{Topics: K, Iterations: 15, Seed: 3, Workers: 1}
		base := Fit(c, cfg)
		m := fitAliasFactored(c, cfg.withDefaults())
		if !equalInts(base.z, m.z) || !equalInts(base.nwt, m.nwt) ||
			!equalInts(base.ndt, m.ndt) || !equalInts(base.nt, m.nt) {
			t.Errorf("K=%d: fused alias sweep diverges from factored sampleToken reference", K)
		}
	}
}

// fitAliasFactored mirrors fitAlias with the per-token work routed
// through the factored sampleToken instead of the fused sweeps.
func fitAliasFactored(c *textproc.Corpus, cfg Config) *Model {
	m := newModel(c, cfg)
	if len(m.z) == 0 {
		return m
	}
	st := newAliasSampler(m)
	st.initAssignments()
	st.rebuildTables(true)
	for iter := 0; iter < cfg.Iterations; iter++ {
		st.refresh()
		wordStep := aliasWordStep(iter)
		for ci := range st.chunks {
			ck := &st.chunks[ci]
			for d := ck.lo; d < ck.hi; d++ {
				nd := len(m.docs[d])
				if nd == 0 {
					continue
				}
				off := m.docOff[d]
				ndtRow := st.ndt[d*st.K:]
				zd := st.z32[off:]
				for zi := off; zi < off+nd; zi++ {
					w := int(st.tok32[zi])
					s := int(st.z32[zi])
					ndtRow[s]--
					cur := st.sampleToken(&ck.rng, zd, nd, ndtRow, w, s, wordStep)
					ndtRow[cur]++
					if cur != s {
						st.z32[zi] = int32(cur)
						ck.deltas = append(ck.deltas, tdelta{w: int32(w), from: uint8(s), to: uint8(cur)})
					}
				}
			}
		}
		st.merge()
		if (iter+1)%aliasRebuildSweeps == 0 {
			st.rebuildTables(false)
		}
	}
	st.finish()
	return m
}

// TestAliasMatchesDensePerplexity is the convergence gate: alias-MH is a
// different Markov chain than the exact-conditional samplers, so instead
// of float identity the converged fit must reach the same perplexity
// basin as the dense oracle, at two topic counts.
func TestAliasMatchesDensePerplexity(t *testing.T) {
	c := mixedCorpus(400)
	for _, K := range []int{8, 20} {
		cfg := Config{Topics: K, Iterations: 120, Seed: 42}.withDefaults()
		pd := fitDense(c, cfg).Perplexity()
		pa := fitAlias(c, cfg).Perplexity()
		if math.Abs(pd-pa)/pd > 0.10 {
			t.Errorf("K=%d: converged perplexity diverges: dense %.2f alias %.2f", K, pd, pa)
		}
	}
}

// TestAliasWorkersByteIdentical is the determinism contract on the alias
// path: any worker count, byte-identical fitted model — in both layouts,
// including worker counts far above the chunk count.
func TestAliasWorkersByteIdentical(t *testing.T) {
	c := mixedCorpus(900) // 4 chunks
	for _, K := range []int{9, 20} {
		base := Fit(c, Config{Topics: K, Iterations: 25, Seed: 17, Workers: 1})
		for _, workers := range []int{2, 3, 4, 16} {
			m := Fit(c, Config{Topics: K, Iterations: 25, Seed: 17, Workers: workers})
			if !equalInts(base.z, m.z) || !equalInts(base.nwt, m.nwt) ||
				!equalInts(base.ndt, m.ndt) || !equalInts(base.nt, m.nt) {
				t.Errorf("K=%d workers=%d: fitted model diverges from serial fit", K, workers)
			}
		}
	}
}

// TestAliasCountInvariants refits and recounts: the model's count arrays
// must exactly reflect the final assignment array.
func TestAliasCountInvariants(t *testing.T) {
	c := mixedCorpus(250)
	for _, K := range []int{5, 20} {
		m := Fit(c, Config{Topics: K, Iterations: 10, Seed: 23})
		nwt := make([]int, len(m.nwt))
		ndt := make([]int, len(m.ndt))
		nt := make([]int, K)
		for d, doc := range m.docs {
			zd := m.z[m.docOff[d]:]
			for i, w := range doc {
				k := zd[i]
				nwt[w*K+k]++
				ndt[d*K+k]++
				nt[k]++
			}
		}
		if !equalInts(nwt, m.nwt) || !equalInts(ndt, m.ndt) || !equalInts(nt, m.nt) {
			t.Errorf("K=%d: fitted counts do not match assignments", K)
		}
	}
}

// TestAliasStaleRebuild pins the stale-counter contract: immediately
// after a rebuild barrier, every word's wProp matches its live counts;
// between barriers it may drift (that's the point of staleness).
func TestAliasStaleRebuild(t *testing.T) {
	c := mixedCorpus(200)
	cfg := Config{Topics: 6, Iterations: 1, Seed: 9}.withDefaults()
	m := newModel(c, cfg)
	st := newAliasSampler(m)
	st.initAssignments()
	st.rebuildTables(true)
	for iter := 0; iter < 2*aliasRebuildSweeps; iter++ {
		st.refresh()
		for ci := range st.chunks {
			st.sweepChunk(&st.chunks[ci], aliasWordStep(iter))
		}
		st.merge()
		if (iter+1)%aliasRebuildSweeps == 0 {
			st.rebuildTables(false)
			for w := 0; w < st.V; w++ {
				if st.stale[w] != 0 {
					t.Fatalf("iter %d: word %d still stale after rebuild", iter, w)
				}
				for k := 0; k < st.K; k++ {
					want := float32(float64(st.wtCount(w, k)) + st.beta)
					if got := st.wProp[w*st.K+k]; got != want {
						t.Fatalf("iter %d: wProp[%d,%d]=%v want %v after rebuild", iter, w, k, got, want)
					}
				}
			}
		}
	}
}

// TestAliasTopicCeiling: Fit must route K above aliasMaxK to the dense
// reference rather than overflow the 8-bit alias cells and deltas, and
// K = aliasMaxK must still take the alias chain.
func TestAliasTopicCeiling(t *testing.T) {
	c := mixedCorpus(60)
	over := Config{Topics: aliasMaxK + 1, Iterations: 2, Seed: 1}
	m, ref := Fit(c, over), fitDense(c, over.withDefaults())
	if !equalInts(m.z, ref.z) || !equalInts(m.nwt, ref.nwt) || !equalInts(m.ndt, ref.ndt) {
		t.Error("K > aliasMaxK should route to the dense sampler")
	}
	at := Config{Topics: aliasMaxK, Iterations: 2, Seed: 1}
	m, ref = Fit(c, at), fitAlias(c, at.withDefaults())
	if !equalInts(m.z, ref.z) || !equalInts(m.nwt, ref.nwt) {
		t.Error("K = aliasMaxK should route to the alias sampler")
	}
}

// FuzzAliasTable fuzzes the Vose construction: for arbitrary positive
// weight vectors, the implied per-topic probability of the built table
// must match the normalized input distribution within float32 rounding,
// every alias index must stay in range, and a batch of real draws must
// never index out of bounds.
func FuzzAliasTable(f *testing.F) {
	f.Add(uint64(1), []byte{1})
	f.Add(uint64(42), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(7), []byte{255, 1, 255, 1, 0, 0, 128})
	f.Add(uint64(99), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		// aliasMaxK bounds the cell's 8-bit alias field; weight vectors
		// longer than a real table can never be built.
		if len(raw) == 0 || len(raw) > aliasMaxK {
			t.Skip()
		}
		n := len(raw)
		p := make([]float64, n)
		total := 0.0
		for i, b := range raw {
			p[i] = float64(b) + 0.01 // strictly positive, β-smoothed shape
			total += p[i]
		}
		want := make([]float64, n)
		for i := range p {
			want[i] = p[i] / total
		}

		cells := make([]uint32, n)
		voseBuild(p, cells, make([]int32, n), make([]int32, n))

		implied := make([]float64, n)
		for j := 0; j < n; j++ {
			aliasIdx := int(cells[j] >> 24)
			thresh := cells[j] & (aliasOne - 1)
			if aliasIdx >= n {
				t.Fatalf("alias[%d] = %d out of range (n=%d)", j, aliasIdx, n)
			}
			prob := float64(thresh) / aliasOne
			implied[j] += prob / float64(n)
			implied[aliasIdx] += (1 - prob) / float64(n)
		}
		// Each cell contributes one 24-bit fixed-point rounding of at most
		// 2⁻²⁵; n cells plus the normalization give the bound.
		tol := float64(n+2) * 7e-8
		for k := range want {
			if math.Abs(implied[k]-want[k]) > tol {
				t.Fatalf("implied[%d] = %v, want %v (n=%d, |Δ|=%.3g > %.3g)",
					k, implied[k], want[k], n, math.Abs(implied[k]-want[k]), tol)
			}
		}

		// Draws must stay in range for any RNG stream.
		st := &aliasSampler{K: n, aliasCell: cells}
		rng := newAliasRng(seed)
		for i := 0; i < 200; i++ {
			if k := st.drawAlias(&rng, 0); k < 0 || k >= n {
				t.Fatalf("draw %d: topic %d out of range", i, k)
			}
		}
	})
}

// mixedCorpus builds a messier corpus than synthCorpus: overlapping word
// pools, varying document lengths, a few empty documents — the shapes the
// chunked bookkeeping has to survive.
func mixedCorpus(nDocs int) *textproc.Corpus {
	pools := [][]string{
		{"bitcoin", "crypto", "wallet", "trading", "profit", "signal"},
		{"anime", "server", "gaming", "nitro", "discord", "signal"},
		{"invite", "group", "link", "join", "telegram", "wallet"},
	}
	rng := rand.New(rand.NewPCG(7, 11))
	var texts []string
	for i := 0; i < nDocs; i++ {
		if i%17 == 0 {
			texts = append(texts, "")
			continue
		}
		pool := pools[i%len(pools)]
		n := 3 + rng.IntN(20)
		var words []string
		for j := 0; j < n; j++ {
			words = append(words, pool[rng.IntN(len(pool))])
		}
		texts = append(texts, strings.Join(words, " "))
	}
	return textproc.NewCorpus(textproc.NewTokenizer(), texts)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// benchCorpus approximates the Table 3 workload: a few thousand short
// tweet-like documents over a vocabulary of thousands of words, with
// Zipf-skewed frequencies concentrated per latent topic. A toy corpus
// where every word occurs in every topic would flatter the alias tables'
// cache footprint.
func benchCorpus() *textproc.Corpus { return benchCorpusShape(400, 4000) }

// benchCorpusShape builds the tweet-shaped corpus at a chosen vocabulary
// (10 latent pools × poolSize words) and document count, so the sweep
// bench can vary vocabulary independently of the model's K.
func benchCorpusShape(poolSize, nDocs int) *textproc.Corpus {
	const latent = 10
	pools := make([][]string, latent)
	for t := range pools {
		pool := make([]string, poolSize)
		for j := range pool {
			pool[j] = fmt.Sprintf("tw%dx%d", t, j)
		}
		pools[t] = pool
	}
	rng := rand.New(rand.NewPCG(21, 4))
	texts := make([]string, nDocs)
	for i := range texts {
		pool := pools[i%latent]
		n := 8 + rng.IntN(13)
		words := make([]string, n)
		for j := range words {
			// A log-uniform rank draw approximates the Zipfian token
			// frequencies of real tweet text.
			r := rng.Float64()
			words[j] = pool[int(math.Exp(r*math.Log(float64(poolSize))))-1]
		}
		texts[i] = strings.Join(words, " ")
	}
	return textproc.NewCorpus(textproc.NewTokenizer(), texts)
}

// corpusTokens counts the token instances one Gibbs sweep visits.
func corpusTokens(c *textproc.Corpus) int {
	n := 0
	for _, d := range c.Docs {
		n += len(d)
	}
	return n
}

// benchFit times one kernel and reports sampling throughput as a tok/s
// custom metric — token draws (tokens × iterations) per wall second — so
// cmd/benchjson's bench-compare gates throughput directly ("/s" metrics
// are higher-is-better there; a drop beyond tolerance fails the gate).
func benchFit(b *testing.B, fit func(*textproc.Corpus, Config) *Model, c *textproc.Corpus, cfg Config) {
	b.Helper()
	cfg = cfg.withDefaults()
	draws := float64(corpusTokens(c)) * float64(cfg.Iterations)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit(c, cfg)
	}
	b.ReportMetric(draws*float64(b.N)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkLDAFit compares the dense reference sampler against the
// alias-table MH sampler, serially and in parallel, at the paper's Table 3
// config (K=10, 200 iterations). cmd/benchjson derives the alias
// serial-vs-parallel speedup from the sub-benchmark names, per GOMAXPROCS
// count when run under its -cpus matrix mode.
func BenchmarkLDAFit(b *testing.B) {
	c := benchCorpus()
	cfg := Config{Topics: 10, Iterations: 200, Seed: 42}
	b.Run("dense", func(b *testing.B) {
		benchFit(b, fitDense, c, cfg)
	})
	b.Run("alias/serial", func(b *testing.B) {
		s := cfg
		s.Workers = 1
		benchFit(b, fitAlias, c, s)
	})
	b.Run("alias/parallel", func(b *testing.B) {
		benchFit(b, fitAlias, c, cfg)
	})
}

// BenchmarkLDASweep scales the kernel comparison across K ∈ {10, 25, 50}
// and two vocabulary sizes (4K and 16K words). The dense chain's per-token
// cost is Θ(K) and vocabulary-independent; the alias sampler's draw is
// O(1), so its win should widen with K — the shape longitudinal corpora
// (TeleScope-scale) put on the kernel. Iterations are shortened: the
// sweep gates scaling ratios, not converged models.
func BenchmarkLDASweep(b *testing.B) {
	kernels := []struct {
		name string
		fit  func(*textproc.Corpus, Config) *Model
	}{{"dense", fitDense}, {"alias", fitAlias}}
	for _, shape := range []struct {
		pool int
		name string
	}{{400, "V4000"}, {1600, "V16000"}} {
		c := benchCorpusShape(shape.pool, 2000)
		for _, k := range []int{10, 25, 50} {
			cfg := Config{Topics: k, Iterations: 50, Seed: 42, Workers: 1}
			for _, kn := range kernels {
				b.Run(fmt.Sprintf("K%d/%s/%s", k, shape.name, kn.name), func(b *testing.B) {
					benchFit(b, kn.fit, c, cfg)
				})
			}
		}
	}
}
