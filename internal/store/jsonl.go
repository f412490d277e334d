package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteJSONL writes one JSON document per line through encoding/json.
func WriteJSONL[T any](w io.Writer, items []T) error {
	return writeJSONL(w, len(items), func(i int) any { return &items[i] })
}

// writeJSONL encodes n records, one per line, without materializing a
// []T: rec returns a pointer to the i'th record, which Save's list views
// reconstruct on demand into one reused variable.
func writeJSONL(w io.Writer, n int, rec func(i int) any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := 0; i < n; i++ {
		if err := enc.Encode(rec(i)); err != nil {
			return fmt.Errorf("store: encoding line %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads newline-delimited JSON documents. Unknown object keys
// are skipped, so older binaries read newer files.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	err := streamJSONL(r, make([]T, jsonlBatchSize), func(batch []T) error {
		out = append(out, batch...)
		return nil
	})
	return out, err
}

// jsonlBatchSize is how many decoded records a streaming load buffers
// before flushing them into the store: large enough to amortize per-batch
// lock traffic, small enough that load memory stays O(batch), not O(file).
const jsonlBatchSize = 4096

// streamJSONL decodes newline-delimited JSON into the caller's batch
// buffer, invoking flush each time it fills (and once at EOF for the
// remainder). The batch backing array is reused across flushes — flush
// must not retain it — so decoding an arbitrarily large file needs only
// one batch of live decoder output at a time.
func streamJSONL[T any](r io.Reader, batch []T, flush func([]T) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line, k := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return fmt.Errorf("store: decoding line %d: %w", line, err)
		}
		batch[k] = v
		k++
		if k == len(batch) {
			if err := flush(batch); err != nil {
				return err
			}
			k = 0
		}
	}
	if k > 0 {
		if err := flush(batch[:k]); err != nil {
			return err
		}
	}
	return sc.Err()
}

// Save persists the dataset as JSONL files under dir (created as needed):
// tweets.jsonl, control.jsonl, groups.jsonl, messages.jsonl, posts.jsonl,
// users.jsonl. The columnar families are encoded straight from their list
// views, so Save never materializes a record slice.
func (s *Store) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tweets := s.Tweets()
	var t TweetRecord
	if err := saveView(filepath.Join(dir, "tweets.jsonl"), tweets.Len(), func(i int) any {
		t = tweets.At(i)
		return &t
	}); err != nil {
		return err
	}
	control := s.Control()
	var c ControlRecord
	if err := saveView(filepath.Join(dir, "control.jsonl"), control.Len(), func(i int) any {
		c = control.At(i)
		return &c
	}); err != nil {
		return err
	}
	groups := s.Groups()
	var g GroupRecord
	if err := saveView(filepath.Join(dir, "groups.jsonl"), groups.Len(), func(i int) any {
		g = groups.Record(i)
		return &g
	}); err != nil {
		return err
	}
	msgs := s.Messages()
	var m MessageRecord
	if err := saveView(filepath.Join(dir, "messages.jsonl"), msgs.Len(), func(i int) any {
		m = msgs.At(i)
		return &m
	}); err != nil {
		return err
	}
	if err := saveFile(filepath.Join(dir, "posts.jsonl"), s.Posts()); err != nil {
		return err
	}
	return saveFile(filepath.Join(dir, "users.jsonl"), s.Users())
}

// saveFile and saveView write through a temp file renamed into place, so
// a crash mid-save (or mid-analysis rewrite) can never leave a torn
// snapshot behind — readers see the old complete file or the new one.
func saveFile[T any](path string, items []T) error {
	return saveAtomic(path, func(f *os.File) error {
		return WriteJSONL(f, items)
	})
}

func saveView(path string, n int, rec func(i int) any) error {
	return saveAtomic(path, func(f *os.File) error {
		return writeJSONL(f, n, rec)
	})
}

func saveAtomic(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return nil
}

// Load reads a dataset previously written by Save, streaming each file
// into the columnar store in jsonlBatchSize batches instead of
// materializing whole []T slices first.
func (s *Store) loadStreaming(dir string) error {
	// Tweets decode as TweetRecord (the on-disk type) and are wrapped into
	// one reusable ingest batch; canonical URLs live on the group records.
	ingest := make([]TweetIngest, jsonlBatchSize)
	err := loadFileStream(filepath.Join(dir, "tweets.jsonl"), make([]TweetRecord, jsonlBatchSize), func(batch []TweetRecord) error {
		for i := range batch {
			ingest[i] = TweetIngest{Tweet: batch[i]}
		}
		s.AddTweetBatch(ingest[:len(batch)])
		return nil
	})
	if err != nil {
		return err
	}
	err = loadFileStream(filepath.Join(dir, "control.jsonl"), make([]ControlRecord, jsonlBatchSize), func(batch []ControlRecord) error {
		s.AddControlBatch(batch)
		return nil
	})
	if err != nil {
		return err
	}
	// Group records carry derived fields (observations, join data), so
	// they replace the skeletons AddTweetBatch built.
	err = loadFileStream(filepath.Join(dir, "groups.jsonl"), make([]GroupRecord, jsonlBatchSize), func(batch []GroupRecord) error {
		for i := range batch {
			s.groups.put(&batch[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	err = loadFileStream(filepath.Join(dir, "messages.jsonl"), make([]MessageRecord, jsonlBatchSize), func(batch []MessageRecord) error {
		s.AddMessageBatch(batch)
		return nil
	})
	if err != nil {
		return err
	}
	// Posts append verbatim: their group-side effects (SeenSocial,
	// SocialPosts) are derived state the loaded group records already
	// carry, so replaying AddPost would double-count them. The dedup
	// index is still registered so post-load polling cannot re-ingest
	// an already-collected post.
	err = loadFileStream(filepath.Join(dir, "posts.jsonl"), make([]PostRecord, jsonlBatchSize), func(batch []PostRecord) error {
		s.tweetMu.Lock()
		for i := range batch {
			s.seenPosts.Put(batch[i].ID, 0)
		}
		s.posts = append(s.posts, batch...)
		s.tweetMu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	// Each user appears once in the file, so upserting inserts verbatim
	// (Creator-only flags survive: the merge only clears Creator on a
	// second sighting).
	return loadFileStream(filepath.Join(dir, "users.jsonl"), make([]UserRecord, jsonlBatchSize), func(batch []UserRecord) error {
		s.UpsertUserBatch(batch)
		return nil
	})
}

// Load reads a dataset previously written by Save.
func Load(dir string) (*Store, error) {
	s := New()
	if err := s.loadStreaming(dir); err != nil {
		return nil, err
	}
	return s, nil
}

func loadFileStream[T any](path string, batch []T, flush func([]T) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	return streamJSONL(f, batch, flush)
}
