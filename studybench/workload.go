package main

import (
	"fmt"

	"msgscope/internal/core"
	"msgscope/internal/faults"
	"msgscope/internal/join"
	"msgscope/internal/simworld"
)

// workload is one study shape. Every study of a run uses the same seeds;
// the benchmark repeats the study in a closed loop (one client, the next
// study starts when the previous one has ended).
type workload struct {
	name  string
	scale float64
	days  int
	join  join.Targets
	// durable turns on checkpointing, an 8 MiB spill budget and a 2%
	// fault rate, halts the study after haltDay's monitor step and
	// finishes it through checkpoint.Read + core.ResumeStudy.
	durable bool
}

// haltDay is the study day after whose monitor step durable-resume halts.
const haltDay = 8

var workloads = []workload{
	{name: "paper-window", scale: 0.02, days: 38},
	{
		name: "join-burst", scale: 0.05, days: 4,
		join: join.Targets{WhatsApp: 208, Telegram: 50, Discord: 50},
	},
	{name: "durable-resume", scale: 0.02, days: 16, durable: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// worldSeed generates the simulated ecosystem and draws the join sample
// of every workload. It is fixed, and the seed every shape above was
// measured at: --seed varies only the fault draws and the LDA chain.
const worldSeed = 42

// world is the workload's simulated ecosystem, as core.NewStudy builds it.
func (w workload) world() simworld.Config {
	wcfg := simworld.DefaultConfig(worldSeed, w.scale)
	wcfg.Days = w.days
	return wcfg
}

// config is the study configuration. worldSeed fixes the ecosystem and
// the join sample; seed drives the fault draws (and, in analyze, the LDA
// chain). ckptDir is used only by the durable workload.
func (w workload) config(seed uint64, ckptDir string) core.Config {
	cfg := core.Config{Seed: worldSeed, Scale: w.scale, Days: w.days, Join: w.join}
	if w.durable {
		const faultRate = 0.02 // the CLI's -fault-rate shape
		cfg.CheckpointDir = ckptDir
		cfg.MemBudget = 8 << 20
		cfg.Faults = &faults.Plan{
			Seed:          seed,
			ErrorRate:     faultRate,
			TimeoutRate:   faultRate / 4,
			MalformedRate: faultRate / 4,
		}
		cfg.OptionsHash = fmt.Sprintf("studybench/%s/seed=%d", w.name, seed)
	}
	return cfg
}
