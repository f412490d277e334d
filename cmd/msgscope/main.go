// Command msgscope runs the simulated reproduction of "Demystifying the
// Messaging Platforms' Ecosystem Through the Lens of Twitter" (IMC 2020).
//
// Usage:
//
//	msgscope run    [-seed N] [-scale F] [-days N] [-out DIR] [-exp id,...]
//	msgscope report [-seed N] [-scale F] -exp table2,fig1,...  (alias of run)
//	msgscope list
//
// `run` executes the full 38-day methodology — discovery via the simulated
// Twitter APIs, daily monitoring, joining, message collection — then prints
// the requested tables/figures (default: all) and optionally saves the
// dataset as JSONL under -out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"msgscope"
	"msgscope/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "msgscope:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		fmt.Println("experiments:", strings.Join(msgscope.Experiments(), " "))
		return nil
	case "run", "report":
		return runStudy(args[1:])
	case "serve":
		return runServe(args[1:])
	case "gen":
		return runGen(args[1:])
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  msgscope run    [-seed N] [-scale F] [-days N] [-fault-rate F] [-out DIR] [-exp id,...] [-summary]
  msgscope run    [-checkpoint DIR | -resume DIR] [-mem-budget SIZE] ...
  msgscope report [-seed N] [-scale F] -exp table2,fig1,...
  msgscope serve  [-seed N] [-scale F] [-speedup X] [-addr HOST:PORT]
  msgscope gen    [-seed N] [-scale F] -out DIR
  msgscope list`)
}

// parseBytes parses a byte size with an optional k/m/g/t suffix (binary
// units), e.g. "8g", "512m", "1048576".
func parseBytes(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	shift := 0
	switch {
	case strings.HasSuffix(t, "k"):
		shift, t = 10, t[:len(t)-1]
	case strings.HasSuffix(t, "m"):
		shift, t = 20, t[:len(t)-1]
	case strings.HasSuffix(t, "g"):
		shift, t = 30, t[:len(t)-1]
	case strings.HasSuffix(t, "t"):
		shift, t = 40, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("invalid size %q (want e.g. 8g, 512m, or a byte count)", s)
	}
	if n > (1<<62)>>shift {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n << shift, nil
}

func runStudy(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "simulation seed")
	scale := fs.Float64("scale", 0.02, "workload scale (1.0 = paper scale)")
	days := fs.Int("days", 38, "collection window in days")
	out := fs.String("out", "", "directory to save the JSONL dataset (optional)")
	exp := fs.String("exp", "", "comma-separated experiment IDs (default: all)")
	summary := fs.Bool("summary", true, "print pipeline summary")
	maxMsgs := fs.Int("max-messages", 0, "cap messages collected per joined group (0 = unlimited)")
	joinWA := fs.Int("join-wa", 0, "WhatsApp groups to join (0 = scaled paper default)")
	joinTG := fs.Int("join-tg", 0, "Telegram groups to join (0 = scaled paper default)")
	joinDC := fs.Int("join-dc", 0, "Discord servers to join (0 = scaled paper default)")
	text := fs.Bool("text", false, "collect message bodies (needed for the toxicity experiment)")
	topics := fs.String("topics", "", "comma-separated title keywords for focused collection")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV data (optional)")
	svgDir := fs.String("svg", "", "directory to render per-figure SVG charts (optional)")
	socialSrc := fs.Bool("social", false, "enable the secondary discovery source (crosssource experiment)")
	faultRate := fs.Float64("fault-rate", 0, "per-request probability of an injected server error (plus timeouts and malformed bodies at a quarter of the rate); 0 disables fault injection")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof allocs/heap profile to this file at exit")
	traceFile := fs.String("trace", "", "write a runtime execution trace to this file")
	profPhases := fs.Bool("prof-phases", false, "record and print per-phase allocation stats")
	ckptDir := fs.String("checkpoint", "", "directory to checkpoint the run into at every phase boundary (makes it resumable)")
	resumeDir := fs.String("resume", "", "resume an interrupted run from this checkpoint directory (run options come from its manifest; other study flags are ignored)")
	memBudget := fs.String("mem-budget", "", "live-heap byte budget for the column store, e.g. 8g or 512m; cold rows spill to mmap-backed segment files (empty = never spill)")
	spillDir := fs.String("spill-dir", "", "directory for spilled segment files (default: under -checkpoint, else a temp dir)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resumeDir != "" && *ckptDir != "" {
		return fmt.Errorf("-resume and -checkpoint are mutually exclusive (a resumed run keeps checkpointing into its own directory)")
	}

	profFiles, err := prof.StartFiles(prof.FileConfig{
		CPUProfile: *cpuProfile,
		MemProfile: *memProfile,
		Trace:      *traceFile,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := profFiles.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "msgscope:", err)
		}
	}()

	opts := msgscope.Options{
		Seed:                *seed,
		Scale:               *scale,
		Days:                *days,
		MaxMessagesPerGroup: *maxMsgs,
		JoinWhatsApp:        *joinWA,
		JoinTelegram:        *joinTG,
		JoinDiscord:         *joinDC,
		GenerateMessageText: *text,
		SocialDiscovery:     *socialSrc,
		ProfilePhases:       *profPhases,
	}
	if *topics != "" {
		opts.TopicKeywords = strings.Split(*topics, ",")
	}
	if *faultRate > 0 {
		opts.Faults = &msgscope.FaultPlan{
			Seed:          *seed,
			ErrorRate:     *faultRate,
			TimeoutRate:   *faultRate / 4,
			MalformedRate: *faultRate / 4,
		}
	}
	opts.CheckpointDir = *ckptDir
	opts.SpillDir = *spillDir
	if *memBudget != "" {
		b, err := parseBytes(*memBudget)
		if err != nil {
			return fmt.Errorf("-mem-budget: %w", err)
		}
		opts.MemBudget = b
	}
	var res *msgscope.Result
	if *resumeDir != "" {
		res, err = msgscope.Resume(context.Background(), *resumeDir)
	} else {
		res, err = msgscope.Run(context.Background(), opts)
	}
	if err != nil {
		return err
	}
	if *summary {
		fmt.Println(res.Summary())
	}
	if *profPhases {
		fmt.Println("per-phase allocations:")
		for _, ps := range res.ProfilePhases() {
			fmt.Printf("  %-8s %4d captures  %12d bytes  %10d objects  %3d gc cycles\n",
				ps.Phase, ps.Captures, ps.AllocBytes, ps.AllocObjects, ps.GCCycles)
		}
	}
	if *exp == "" {
		fmt.Print(res.RenderAll())
	} else {
		for _, id := range strings.Split(*exp, ",") {
			fmt.Println(res.Render(strings.TrimSpace(id)))
		}
	}
	if *profPhases {
		if stages := res.ProfileStages(); len(stages) > 0 {
			fmt.Println("analysis stages:")
			for _, st := range stages {
				fmt.Printf("  %-10s %4d calls  %12s wall\n", st.Stage, st.Calls, st.Wall)
			}
		}
	}
	if *out != "" {
		if err := res.SaveDataset(*out); err != nil {
			return fmt.Errorf("saving dataset: %w", err)
		}
		fmt.Println("dataset saved to", *out)
	}
	if *csvDir != "" {
		if err := res.SaveFigureCSVs(*csvDir); err != nil {
			return fmt.Errorf("saving figure CSVs: %w", err)
		}
		fmt.Println("figure CSVs saved to", *csvDir)
	}
	if *svgDir != "" {
		if err := res.SaveFigureSVGs(*svgDir); err != nil {
			return fmt.Errorf("rendering figure SVGs: %w", err)
		}
		fmt.Println("figure SVGs rendered to", *svgDir)
	}
	return nil
}
