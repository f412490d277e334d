// Command ldatopics fits an LDA topic model (collapsed Gibbs sampling) over
// a text corpus and prints the topics — the standalone version of the
// paper's Table 3 analysis. Input is one document per line (plain text) or
// a tweets.jsonl file written by `msgscope run -out`. The Gibbs kernel
// follows from -k, as in lda.Fit: alias-table MH up to 256 topics, the
// dense reference chain above.
//
// Usage:
//
//	ldatopics -k 10 -iters 200 [-lang en] [-jsonl] [-platform WhatsApp] FILE
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"msgscope/internal/analysis/lda"
	"msgscope/internal/analysis/textproc"
	"msgscope/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ldatopics:", err)
		os.Exit(1)
	}
}

func run() error {
	k := flag.Int("k", 10, "number of topics")
	iters := flag.Int("iters", 200, "Gibbs iterations")
	seed := flag.Uint64("seed", 1, "sampler seed")
	topN := flag.Int("top", 10, "terms to print per topic")
	jsonl := flag.Bool("jsonl", false, "input is a tweets.jsonl dataset file")
	lang := flag.String("lang", "en", "language filter for -jsonl input (empty = all)")
	plat := flag.String("platform", "", "platform filter for -jsonl input (WhatsApp/Telegram/Discord)")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one input file, got %d", flag.NArg())
	}
	texts, err := loadTexts(flag.Arg(0), *jsonl, *lang, *plat)
	if err != nil {
		return err
	}
	if len(texts) == 0 {
		return fmt.Errorf("no documents after filtering")
	}
	corpus := textproc.NewCorpus(textproc.NewTokenizer(), texts)
	model := lda.Fit(corpus, lda.Config{Topics: *k, Iterations: *iters, Seed: *seed})
	fmt.Printf("%d documents, %d vocabulary, %d topics, perplexity %.1f\n",
		len(corpus.Docs), corpus.Vocab.Size(), *k, model.Perplexity())
	for _, s := range model.Summaries(*topN) {
		fmt.Println(s)
	}
	return nil
}

func loadTexts(path string, jsonl bool, lang, plat string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if jsonl {
		recs, err := store.ReadJSONL[store.TweetRecord](f)
		if err != nil {
			return nil, err
		}
		var texts []string
		for _, r := range recs {
			if lang != "" && r.Lang != lang {
				continue
			}
			if plat != "" && r.Platform.String() != plat {
				continue
			}
			texts = append(texts, r.Text)
		}
		return texts, nil
	}
	var texts []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			texts = append(texts, line)
		}
	}
	return texts, sc.Err()
}
