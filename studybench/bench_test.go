package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain turns the test binary into a study that never ends when the
// watchdog test launches it as a child.
func TestMain(m *testing.M) {
	if os.Getenv("STUDYBENCH_HANG") == "1" {
		time.Sleep(time.Hour)
	}
	os.Exit(m.Run())
}

func goodOutput() output {
	return output{
		Outcomes: outcomes{Discovered: 10, Alive: 6, Revoked: 3, Deferred: 1},
		Table2: []table2Row{
			{"WhatsApp", 50, 9}, {"Telegram", 20, 4}, {"Discord", 10, 2},
		},
		Messages:      100,
		RenderDigest:  "abc1",
		DatasetDigest: "def0",
	}
}

func TestCheckRejectsTamperedOutput(t *testing.T) {
	good := goodOutput()
	ref := goodOutput()
	if err := selfTest(good, nil); err != nil {
		t.Fatal(err)
	}
	if err := selfTest(good, &ref); err != nil {
		t.Fatal(err)
	}
	ref.RenderDigest = "abc2"
	if check(good, &ref) == nil {
		t.Fatal("renders differing from the reference pass the check")
	}
	// A workload without dataset digests compares renders alone.
	good.DatasetDigest, ref.DatasetDigest, ref.RenderDigest = "", "", good.RenderDigest
	if err := selfTest(good, &ref); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogKillsHungStudy(t *testing.T) {
	b := &bencher{
		w: workloads[0], exe: os.Args[0], work: t.TempDir(),
		deadline: time.Now().Add(time.Minute), watchdog: time.Second,
	}
	start := time.Now()
	o, err := b.study("timed", "STUDYBENCH_HANG=1")
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("hung study: err = %v, want a watchdog kill", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("watchdog took %s to stop a study", d)
	}
	var tl tally
	tl.add(o, err, nil)
	tl.close()
	if tl.failed != tl.attempted || tl.failed == 0 || tl.correct() {
		t.Fatalf("hung study booked as failed=%d attempted=%d correct=%v", tl.failed, tl.attempted, tl.correct())
	}
}
