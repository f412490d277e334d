package msgscope_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msgscope"
)

// Study-level spill gates: a memory budget must never change what a run
// collects or reports — only where cold rows live — including across a
// crash and a resume that replays the record logs into a budgeted store.

// countSegFiles returns how many sealed segment files dir holds.
func countSegFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading spill dir: %v", err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			n++
		}
	}
	return n
}

// TestMemBudgetRunMatchesUnbudgeted runs the same study with no budget and
// with a budget small enough that every family spills repeatedly, and
// requires byte-identical artifacts: dataset JSONL, order-sensitive
// figures, summary.
func TestMemBudgetRunMatchesUnbudgeted(t *testing.T) {
	ctx := context.Background()
	opts := msgscope.Options{Seed: 42, Scale: 0.01, Days: 3, SearchEveryHours: 6}

	plain, err := msgscope.Run(ctx, opts)
	if err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	base := collectArtifacts(t, plain)

	bopts := opts
	bopts.MemBudget = 1 << 16 // 64 KiB: far below the corpus, spills constantly
	bopts.SpillDir = t.TempDir()
	budgeted, err := msgscope.Run(ctx, bopts)
	if err != nil {
		t.Fatalf("budgeted run: %v", err)
	}
	if n := countSegFiles(t, bopts.SpillDir); n == 0 {
		t.Fatal("budgeted run sealed no segments; the differential is vacuous")
	}
	compareArtifacts(t, "budgeted-vs-unbudgeted", base, collectArtifacts(t, budgeted))
}

// TestMemBudgetCrashResume kills a budgeted, checkpointed run at boundary
// and mid-phase points, resumes it (replaying the logs into a budgeted
// store, which re-seals as it goes), and requires the final artifacts to
// match an uninterrupted unbudgeted run.
func TestMemBudgetCrashResume(t *testing.T) {
	ctx := context.Background()
	opts := msgscope.Options{Seed: 42, Scale: 0.01, Days: 3, SearchEveryHours: 6}

	plain, err := msgscope.Run(ctx, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	base := collectArtifacts(t, plain)

	for _, kp := range []killPoint{{0, "drain"}, {1, "monitor"}, {2, "search-12"}, {2, "join"}} {
		t.Run(kp.String(), func(t *testing.T) {
			dir := t.TempDir()
			kopts := opts
			kopts.MemBudget = 1 << 16
			kopts.CheckpointDir = dir
			if _, err := msgscope.RunWithHook(ctx, kopts, killAt(kp)); !errors.Is(err, msgscope.ErrHalted) {
				t.Fatalf("killed run at %s: err = %v, want ErrHalted", kp, err)
			}
			res, err := msgscope.Resume(ctx, dir)
			if err != nil {
				t.Fatalf("resuming from kill at %s: %v", kp, err)
			}
			compareArtifacts(t, "budget-resumed-vs-plain", base, collectArtifacts(t, res))
			if n := countSegFiles(t, filepath.Join(dir, "segments")); n == 0 {
				t.Errorf("resumed run left no segments in %s", filepath.Join(dir, "segments"))
			}
		})
	}
}

// TestResumeIgnoresLegacySpillBlock resumes a checkpoint written by a
// build that pinned spill segments in the manifest: its "spill" block
// names segment files, and the spill directory holds stray segments and a
// temp file. The logs carry every sealed row, so the resume ignores the
// block, clears the directory and replays in full, ending byte-identical
// to an uninterrupted run.
func TestResumeIgnoresLegacySpillBlock(t *testing.T) {
	ctx := context.Background()
	opts := msgscope.Options{Seed: 42, Scale: 0.01, Days: 3, SearchEveryHours: 6}
	plain, err := msgscope.Run(ctx, opts)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	base := collectArtifacts(t, plain)

	dir := t.TempDir()
	kopts := opts
	kopts.MemBudget = 1 << 16
	kopts.CheckpointDir = dir
	kp := killPoint{1, "monitor"}
	if _, err := msgscope.RunWithHook(ctx, kopts, killAt(kp)); !errors.Is(err, msgscope.ErrHalted) {
		t.Fatalf("killed run at %s: err = %v, want ErrHalted", kp, err)
	}
	segDir := filepath.Join(dir, "segments")
	strays := map[string]string{
		"tweets-000000.seg":      "not a segment",
		"messages-000042.seg":    "not a segment either",
		"control-000003.seg.tmp": "torn seal",
	}
	for name, body := range strays {
		if err := os.WriteFile(filepath.Join(segDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Hand-edit the manifest the way an older build wrote it — a "spill"
	// block pinning the stray files — and re-envelope it with its SHA-256.
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Checksum string          `json:"checksum"`
		Manifest json.RawMessage `json:"manifest"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	var payload map[string]json.RawMessage
	if err := json.Unmarshal(env.Manifest, &payload); err != nil {
		t.Fatal(err)
	}
	payload["spill"] = json.RawMessage(`{"budget":65536,"families":{` +
		`"tweets":{"rows":100,"segments":[{"name":"tweets-000000.seg","rows":100,"bytes":4096}]},` +
		`"messages":{"rows":7,"segments":[{"name":"messages-000042.seg","rows":7,"bytes":512}]}}}`)
	if env.Manifest, err = json.Marshal(payload); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(env.Manifest)
	env.Checksum = hex.EncodeToString(sum[:])
	if raw, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := msgscope.Resume(ctx, dir)
	if err != nil {
		t.Fatalf("resuming a legacy-spill manifest: %v", err)
	}
	compareArtifacts(t, "legacy-spill-resumed-vs-plain", base, collectArtifacts(t, res))
	for name, body := range strays {
		if data, err := os.ReadFile(filepath.Join(segDir, name)); err == nil && string(data) == body {
			t.Errorf("stray %s survived the resume", name)
		}
	}
}
