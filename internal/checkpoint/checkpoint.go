// Package checkpoint defines the on-disk run manifest that makes a study
// resumable. A checkpoint directory holds append-only JSONL record logs
// (owned by internal/store) plus one manifest.json written atomically at
// every phase boundary. The manifest is the linearization point: a resume
// trusts exactly the log prefixes the manifest records and truncates
// anything a crash appended after it.
//
// The manifest file wraps the manifest payload with a SHA-256 checksum:
//
//	{"checksum":"<hex sha256 of payload>","manifest":{...}}
//
// so a truncated or bit-flipped file is always rejected with a clear
// error, never silently resumed from. Writes go through a temp file,
// fsync, rename, and a directory fsync, so a crash mid-write leaves the
// previous manifest intact.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Version is the current manifest format version. A manifest written by a
// different version is rejected (the format is internal to one build).
const Version = 1

// ManifestFile is the manifest's file name inside a checkpoint directory.
const ManifestFile = "manifest.json"

// Sentinel errors a resume can branch on.
var (
	// ErrCorrupt wraps any integrity failure: unparsable file, missing or
	// mismatched checksum, wrong version.
	ErrCorrupt = errors.New("checkpoint: corrupt manifest")
	// ErrOptionsMismatch is returned by callers validating OptionsHash
	// against a rebuilt configuration.
	ErrOptionsMismatch = errors.New("checkpoint: options hash mismatch")
)

// LogState pins one record log's durable prefix: a resume truncates the
// file to Bytes and must read exactly Records lines from it.
type LogState struct {
	Bytes   int64 `json:"bytes"`
	Records int64 `json:"records"`
}

// CollectorState is the collector's cursor and counter state.
type CollectorState struct {
	// SinceIDs holds the per-search-term since_id cursors.
	SinceIDs map[string]uint64 `json:"since_ids"`
	// SocialID is the secondary-network polling cursor.
	SocialID uint64 `json:"social_id"`
	// Stats holds the collector's counters by stable name.
	Stats map[string]int64 `json:"stats"`
}

// JoinerState is the join phase's progress: which groups were joined, in
// join order (collection iterates this order), and the WhatsApp account
// rotation cursor.
type JoinerState struct {
	// Joined maps a platform name to joined group codes in join order.
	Joined map[string][]string `json:"joined,omitempty"`
	// WACursor counts joins on the active WhatsApp account; WAAccount is
	// its index in the pool.
	WACursor  int              `json:"wa_cursor"`
	WAAccount int              `json:"wa_account"`
	Stats     map[string]int64 `json:"stats"`
}

// TwitterState is the Twitter service's mutable request-side state. The
// published-tweet cursors are re-derived by replaying PublishUpTo to the
// checkpoint clock; only the search rate limiter and the request sequence
// need to be carried.
type TwitterState struct {
	RateTokens           float64 `json:"rate_tokens"`
	RateLastFillUnixNano int64   `json:"rate_last_fill"`
	ReqSeq               uint64  `json:"req_seq"`
}

// AccountJoin is one (group, time) membership entry of a platform account.
type AccountJoin struct {
	Code       string `json:"code"`
	AtUnixNano int64  `json:"at"`
}

// AccountState is one messaging-platform account's mutable server-side
// state. Banned is WhatsApp-only; Budget/LastRefill are the Telegram and
// Discord flood buckets.
type AccountState struct {
	Name               string        `json:"name"`
	Banned             bool          `json:"banned,omitempty"`
	Budget             float64       `json:"budget,omitempty"`
	LastRefillUnixNano int64         `json:"last_refill,omitempty"`
	Joined             []AccountJoin `json:"joined,omitempty"`
}

// Manifest is one checkpoint: everything a resume needs beyond the record
// logs themselves. It names no spill segment, since segments are per-run
// scratch; a manifest from a build that pinned them carries a "spill"
// key, which decoding ignores, and resumes by replaying its logs.
type Manifest struct {
	Version     int    `json:"version"`
	OptionsHash string `json:"options_hash"`
	// Options carries the caller's run options verbatim (opaque to this
	// package), so `msgscope run -resume DIR` needs no other flags.
	Options json.RawMessage `json:"options,omitempty"`

	// Seq numbers checkpoints within a run; Day and Step locate the
	// completed pipeline step ("drain", "monitor", "join", "done").
	Seq  int    `json:"seq"`
	Day  int    `json:"day"`
	Step string `json:"step"`
	// ClockUnixNano is the simulated clock at the boundary.
	ClockUnixNano int64 `json:"clock"`
	// PublishedUpToUnixNano is the horizon through which tweets had been
	// published — and fanned out to the live streams — at the boundary. It
	// can trail ClockUnixNano: the join phase advances the clock (flood
	// waits) without publishing. A resume must publish only up to this
	// horizon before reopening streams, so the tweets in between are
	// delivered to the fresh subscriptions exactly as the uninterrupted
	// run delivered them.
	PublishedUpToUnixNano int64 `json:"published_up_to"`

	// Logs pins each record log's durable prefix by file name.
	Logs map[string]LogState `json:"logs"`

	Collector    CollectorState   `json:"collector"`
	MonitorStats map[string]int64 `json:"monitor_stats"`
	Joiner       JoinerState      `json:"joiner"`

	Twitter TwitterState `json:"twitter"`
	// Accounts maps a platform name ("whatsapp", "telegram", "discord")
	// to its account states, sorted by name.
	Accounts map[string][]AccountState `json:"accounts,omitempty"`

	// FaultEpoch is the injector's phase counter; FaultCounts its
	// per-kind tallies.
	FaultEpoch  uint64           `json:"fault_epoch"`
	FaultCounts map[string]int64 `json:"fault_counts,omitempty"`
	// Breakers holds per-host circuit-breaker lifetime counters
	// ({"opens","closes"}); the live open/consecutive-failure state is
	// not carried because every phase boundary resets it.
	Breakers map[string]map[string]int64 `json:"breakers,omitempty"`
	// Policies holds per-client retry-policy counters
	// ({"attempts","retries","throttles","exhausted"}) by stable client
	// name.
	Policies map[string]map[string]int64 `json:"policies,omitempty"`
}

// envelope is the checksum wrapper actually stored on disk.
type envelope struct {
	Checksum string          `json:"checksum"`
	Manifest json.RawMessage `json:"manifest"`
}

// Write atomically replaces dir's manifest with m: the payload is written
// to a temp file in dir, fsynced, renamed over ManifestFile, and the
// directory entry is fsynced. After Write returns, a crash at any point
// leaves either the old or the new manifest readable, never a torn one.
func Write(dir string, m *Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{
		Checksum: hex.EncodeToString(sum[:]),
		Manifest: payload,
	})
	if err != nil {
		return fmt.Errorf("checkpoint: encoding envelope: %w", err)
	}
	f, err := os.CreateTemp(dir, ".manifest-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, filepath.Join(dir, ManifestFile))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing manifest: %w", werr)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read loads and verifies dir's manifest. Any integrity failure —
// unreadable JSON, missing or mismatched checksum, truncation, version
// skew — returns an error wrapping ErrCorrupt.
func Read(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, err
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, ManifestFile), err)
	}
	return m, nil
}

// Decode parses and verifies one manifest envelope. It is the fuzzed
// surface: every corruption must surface as an error wrapping ErrCorrupt,
// never as a silently partial manifest.
func Decode(data []byte) (*Manifest, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Checksum == "" || len(env.Manifest) == 0 {
		return nil, fmt.Errorf("%w: missing checksum or payload", ErrCorrupt)
	}
	want, err := hex.DecodeString(env.Checksum)
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("%w: malformed checksum", ErrCorrupt)
	}
	sum := sha256.Sum256(env.Manifest)
	if !hmacEqual(sum[:], want) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(env.Manifest, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", ErrCorrupt, m.Version, Version)
	}
	if m.Step == "" {
		return nil, fmt.Errorf("%w: missing step", ErrCorrupt)
	}
	return &m, nil
}

func hmacEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	var v byte
	for i := range a {
		v |= a[i] ^ b[i]
	}
	return v == 0
}
