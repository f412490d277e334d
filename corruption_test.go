package msgscope_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"msgscope"
	"msgscope/internal/checkpoint"
	"msgscope/internal/store"
)

// corruptionOpts is the small study the corruption tests kill and tamper
// with.
var corruptionOpts = msgscope.Options{Seed: 42, Scale: 0.01, Days: 3, SearchEveryHours: 6}

// makeKilledCheckpoint produces a checkpoint directory left behind by a
// run killed at a day boundary.
func makeKilledCheckpoint(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	opts := corruptionOpts
	opts.CheckpointDir = dir
	if _, err := msgscope.RunWithHook(context.Background(), opts, killAt(killPoint{1, "drain"})); !errors.Is(err, msgscope.ErrHalted) {
		t.Fatalf("killed run: err = %v, want ErrHalted", err)
	}
	return dir
}

// TestResumeRejectsCorruptManifest tampers with a killed run's manifest in
// every way a crash or bitrot can, and requires Resume to fail with a
// clear error — truncation, bit flips, and emptiness must surface
// ErrCorrupt; a stale or tampered options hash must surface
// ErrOptionsMismatch. A silent partial resume is never acceptable.
func TestResumeRejectsCorruptManifest(t *testing.T) {
	ctx := context.Background()
	tamper := []struct {
		name string
		want error
		mut  func(t *testing.T, dir string)
	}{
		{"truncated", checkpoint.ErrCorrupt, func(t *testing.T, dir string) {
			path := filepath.Join(dir, checkpoint.ManifestFile)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", checkpoint.ErrCorrupt, func(t *testing.T, dir string) {
			path := filepath.Join(dir, checkpoint.ManifestFile)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"emptied", checkpoint.ErrCorrupt, func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, checkpoint.ManifestFile), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"stale-options-hash", checkpoint.ErrOptionsMismatch, func(t *testing.T, dir string) {
			m, err := checkpoint.Read(dir)
			if err != nil {
				t.Fatal(err)
			}
			m.OptionsHash = "0000000000000000000000000000000000000000000000000000000000000000"
			if err := checkpoint.Write(dir, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"tampered-options", checkpoint.ErrOptionsMismatch, func(t *testing.T, dir string) {
			// A validly re-checksummed manifest whose stored options no
			// longer hash to the recorded options hash: the run it would
			// resume is not the run that was checkpointed.
			m, err := checkpoint.Read(dir)
			if err != nil {
				t.Fatal(err)
			}
			m.Options = []byte(`{"Seed":43,"Scale":0.01,"Days":3,"SearchEveryHours":6}`)
			if err := checkpoint.Write(dir, m); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			dir := makeKilledCheckpoint(t)
			tc.mut(t, dir)
			res, err := msgscope.Resume(ctx, dir)
			if res != nil {
				t.Fatal("Resume returned a result from a corrupt checkpoint")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Resume error = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("missing-manifest", func(t *testing.T) {
		dir := makeKilledCheckpoint(t)
		if err := os.Remove(filepath.Join(dir, checkpoint.ManifestFile)); err != nil {
			t.Fatal(err)
		}
		if res, err := msgscope.Resume(ctx, dir); err == nil || res != nil {
			t.Fatalf("Resume of a manifest-less directory: res=%v err=%v, want error", res, err)
		}
	})
}

// TestResumeRejectsDamagedLogs damages the record logs under a valid
// manifest: a log shorter than the manifest's recorded prefix must abort
// the resume with a clear error (the durable record stream is gone), while
// extra bytes past the recorded prefix — exactly what a crash mid-append
// leaves — must be truncated away and the resume must still complete with
// byte-identical output.
func TestResumeRejectsDamagedLogs(t *testing.T) {
	ctx := context.Background()

	logName := func(t *testing.T, dir string) string {
		t.Helper()
		m, err := checkpoint.Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range m.Logs {
			if st.Bytes > 0 {
				return name
			}
		}
		t.Fatal("no non-empty record log in the checkpoint")
		return ""
	}

	t.Run("truncated-log", func(t *testing.T) {
		dir := makeKilledCheckpoint(t)
		name := logName(t, dir)
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := msgscope.Resume(ctx, dir)
		if err == nil || res != nil {
			t.Fatalf("Resume with a truncated %s: res=%v err=%v, want error", name, res, err)
		}
		if !errors.Is(err, store.ErrCorruptLog) {
			t.Fatalf("Resume with a truncated %s: %v, want an error wrapping store.ErrCorruptLog", name, err)
		}
	})

	t.Run("crash-tail-truncated-away", func(t *testing.T) {
		full, err := msgscope.Run(ctx, corruptionOpts)
		if err != nil {
			t.Fatal(err)
		}
		base := collectArtifacts(t, full)

		dir := makeKilledCheckpoint(t)
		name := logName(t, dir)
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("{\"garbage\": tr"); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := msgscope.Resume(ctx, dir)
		if err != nil {
			t.Fatalf("Resume over a crash tail: %v", err)
		}
		compareArtifacts(t, "resumed-over-crash-tail", base, collectArtifacts(t, res))
	})
}
