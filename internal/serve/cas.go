package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"photon/internal/obs"
)

// CAS is the content-addressed result store: one record per completed
// execution, keyed by the canonical request's SHA-256 hash. It is the only
// place the scheduler finds a finished result — every successful execution
// is Put before it is reported done, and every submission that is not
// already queued or running is answered from Get or executed — and what
// GET /v1/cache/{hash} reads.
//
// A store opened with OpenCAS keeps each record as a JSON file named by the
// hash, which is what makes a worker's cache survive restarts; one built
// with NewMemoryCAS keeps the artifacts in the index itself. Index, byte
// cap, LRU order and serve_cas_* counters are the same for both.
//
// Crash safety: writes go to a unique temp file in the store directory and
// are fsynced before an atomic rename, so a crash mid-write leaves either
// the old entry or a *.tmp leftover, never a torn entry. Leftover temp
// files are deleted by the boot scan.
//
// Eviction: an in-memory LRU index caps the store at MaxBytes; recency is
// mirrored onto the files' mtimes (Get touches them), so a rebuild from a
// directory scan — the only index there is after a restart — recovers the
// same least-recently-used order the live index had.
//
// All methods are safe for concurrent use and safe on a nil receiver (a
// nil *CAS behaves as an always-miss, drop-everything store).
type CAS struct {
	dir      string // "" for a memory-backed store
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*list.Element // hash -> element whose Value is *casEntry
	lru     *list.List               // front = most recent, back = eviction candidate
	bytes   int64

	log *obs.Logger
	// touchLog rate-limits the recency-touch failure warning: a read-only
	// store directory makes every Get fail the touch, and one warning per
	// minute identifies the condition without flooding the sink.
	touchLog *obs.Logger
	// touch updates a file's mtime; os.Chtimes outside tests.
	touch func(path string, atime, mtime time.Time) error

	mHits, mMisses, mPuts, mEvictions, mErrors *obs.Counter
	mTouchErrors                               *obs.Counter
	gBytes, gEntries                           *obs.Gauge
}

type casEntry struct {
	hash string
	size int64
	out  Output // the record itself in a memory-backed store; zero on disk
}

// casRecord is the on-disk schema: the artifacts plus enough identity to
// debug a store by hand (the hash is also the filename; storing it inside
// lets a mis-renamed file be detected).
type casRecord struct {
	Hash      string    `json:"hash"`
	CreatedAt time.Time `json:"created_at"`
	Text      string    `json:"output"`
	JSONL     string    `json:"jsonl,omitempty"`
	Accuracy  string    `json:"accuracy,omitempty"`
}

const casSuffix = ".json"

// OpenCAS opens (creating if needed) the store rooted at dir, capped at
// maxBytes (<= 0 means 1 GiB), and rebuilds the LRU index from a directory
// scan: entries ordered by mtime, *.tmp leftovers from a crashed writer
// deleted, and the size cap enforced immediately. reg receives the
// serve_cas_* counters; log (nil-safe) gets eviction and error records.
func OpenCAS(dir string, maxBytes int64, reg *obs.Registry, log *obs.Logger) (*CAS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	c := newCAS(dir, maxBytes, reg, log)
	if err := c.rebuild(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewMemoryCAS builds a store that keeps its records in memory — what a
// scheduler gets when it is configured without one, so resubmissions are
// answered from a cache whether or not the operator passed -cas-dir. Same
// cap default, eviction and counters as OpenCAS; nothing survives the
// process.
func NewMemoryCAS(maxBytes int64, reg *obs.Registry, log *obs.Logger) *CAS {
	return newCAS("", maxBytes, reg, log)
}

func newCAS(dir string, maxBytes int64, reg *obs.Registry, log *obs.Logger) *CAS {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	return &CAS{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		log:      log,
		touchLog: log.WithRateLimit(1, time.Minute),
		touch:    os.Chtimes,

		mHits:        reg.Counter("serve_cas_hits"),
		mMisses:      reg.Counter("serve_cas_misses"),
		mPuts:        reg.Counter("serve_cas_puts"),
		mEvictions:   reg.Counter("serve_cas_evictions"),
		mErrors:      reg.Counter("serve_cas_errors"),
		mTouchErrors: reg.Counter("serve_cas_touch_errors"),
		gBytes:       reg.Gauge("serve_cas_bytes"),
		gEntries:     reg.Gauge("serve_cas_entries"),
	}
}

// rebuild scans the store directory into a fresh index. Called once from
// OpenCAS; exported behavior is covered by the restart tests.
func (c *CAS) rebuild() error {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("cas: scan: %w", err)
	}
	type scanned struct {
		hash  string
		size  int64
		mtime time.Time
	}
	var found []scanned
	for _, de := range des {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.Contains(name, ".tmp") {
			// A writer died between create and rename; the entry it was
			// replacing (if any) is intact, the partial write is garbage.
			if err := os.Remove(filepath.Join(c.dir, name)); err != nil {
				c.mErrors.Inc()
				c.log.Warn("cas: removing stale temp file failed",
					slog.String("file", name), slog.String("error", err.Error()))
			}
			continue
		}
		if !strings.HasSuffix(name, casSuffix) {
			continue // not ours; leave it alone
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent delete
		}
		found = append(found, scanned{
			hash:  strings.TrimSuffix(name, casSuffix),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	// Oldest first, so inserting front-of-list in order leaves the most
	// recently used entry at the front — the live index's invariant.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].hash < found[j].hash
	})
	c.mu.Lock()
	for _, f := range found {
		c.entries[f.hash] = c.lru.PushFront(&casEntry{hash: f.hash, size: f.size})
		c.bytes += f.size
	}
	c.evictLocked(nil)
	c.publishLocked()
	c.mu.Unlock()
	return nil
}

// Get returns the stored artifacts for hash, touching the entry's recency
// (index position and file mtime). A missing or unreadable entry is a miss.
func (c *CAS) Get(hash string) (Output, bool) {
	if c == nil {
		return Output{}, false
	}
	c.mu.Lock()
	el, ok := c.entries[hash]
	if !ok {
		c.mu.Unlock()
		c.mMisses.Inc()
		return Output{}, false
	}
	c.lru.MoveToFront(el)
	out := el.Value.(*casEntry).out
	c.mu.Unlock()
	if c.dir == "" {
		c.mHits.Inc()
		return out, true
	}

	path := c.path(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		// The file vanished under us (operator cleanup, disk fault): drop
		// the index entry and report a miss so the job simply re-executes.
		c.dropEntry(hash)
		c.mMisses.Inc()
		c.mErrors.Inc()
		return Output{}, false
	}
	var rec casRecord
	if err := json.Unmarshal(data, &rec); err != nil || (rec.Hash != "" && rec.Hash != hash) {
		c.dropEntry(hash)
		_ = os.Remove(path)
		c.mMisses.Inc()
		c.mErrors.Inc()
		c.log.Warn("cas: corrupt entry dropped", slog.String("hash", short(hash)))
		return Output{}, false
	}
	// Mirror recency onto mtime so a post-restart scan rebuilds the same
	// LRU order. A failed touch still serves the hit — only post-restart
	// eviction order skews — but it is not silent: persistent failures
	// (read-only directory, wrong ownership after a migration) would
	// otherwise surface as inexplicable evictions of hot entries after the
	// next restart. Count every failure; warn at most once a minute.
	now := time.Now()
	if err := c.touch(path, now, now); err != nil {
		c.mTouchErrors.Inc()
		c.touchLog.Warn("cas: recency touch failed (restart eviction order will skew)",
			slog.String("hash", short(hash)), slog.String("error", err.Error()))
	}
	c.mHits.Inc()
	return Output{Text: rec.Text, JSONL: rec.JSONL, Accuracy: rec.Accuracy}, true
}

// Put stores one completed execution, updates the index and evicts beyond
// the byte cap. On disk that is marshal, write to a unique temp file, fsync,
// rename into place. Put never fails the caller's job — errors are counted,
// logged and swallowed (the job's own result is still served from its
// execution; the next submission of the request re-executes).
func (c *CAS) Put(hash string, out Output) {
	if c == nil {
		return
	}
	stored := casEntry{hash: hash}
	if c.dir == "" {
		stored.out = out
		stored.size = int64(len(out.Text) + len(out.JSONL) + len(out.Accuracy))
	} else {
		data, err := json.Marshal(casRecord{
			Hash: hash, CreatedAt: time.Now().UTC(),
			Text: out.Text, JSONL: out.JSONL, Accuracy: out.Accuracy,
		})
		if err != nil {
			c.mErrors.Inc()
			return
		}
		if err := c.writeAtomic(hash, data); err != nil {
			c.mErrors.Inc()
			c.log.Warn("cas: spill failed",
				slog.String("hash", short(hash)), slog.String("error", err.Error()))
			return
		}
		stored.size = int64(len(data))
	}
	c.mPuts.Inc()

	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		e := el.Value.(*casEntry)
		c.bytes += stored.size - e.size
		*e = stored
		c.lru.MoveToFront(el)
	} else {
		c.entries[hash] = c.lru.PushFront(&stored)
		c.bytes += stored.size
	}
	// The entry just written is exempt: evicting the result we computed
	// milliseconds ago to honor a cap would be strictly worse than briefly
	// exceeding it.
	c.evictLocked(c.entries[hash])
	c.publishLocked()
	c.mu.Unlock()
}

// writeAtomic writes data as hash.json via a unique temp file + rename.
func (c *CAS) writeAtomic(hash string, data []byte) error {
	f, err := os.CreateTemp(c.dir, hash+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, c.path(hash)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// evictLocked removes least-recently-used entries (files included) until
// the store fits the byte cap, never evicting keep.
func (c *CAS) evictLocked(keep *list.Element) {
	for c.bytes > c.maxBytes && c.lru.Len() > 0 {
		el := c.lru.Back()
		if el == nil || el == keep {
			return
		}
		e := el.Value.(*casEntry)
		c.lru.Remove(el)
		delete(c.entries, e.hash)
		c.bytes -= e.size
		if c.dir != "" {
			if err := os.Remove(c.path(e.hash)); err != nil && !os.IsNotExist(err) {
				c.mErrors.Inc()
			}
		}
		c.mEvictions.Inc()
		c.log.Debug("cas: evicted", slog.String("hash", short(e.hash)),
			slog.Int64("size", e.size))
	}
}

// dropEntry removes hash from the index (not the disk) after a read error.
func (c *CAS) dropEntry(hash string) {
	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		e := el.Value.(*casEntry)
		c.lru.Remove(el)
		delete(c.entries, hash)
		c.bytes -= e.size
		c.publishLocked()
	}
	c.mu.Unlock()
}

func (c *CAS) publishLocked() {
	c.gBytes.Set(float64(c.bytes))
	c.gEntries.Set(float64(c.lru.Len()))
}

func (c *CAS) path(hash string) string {
	return filepath.Join(c.dir, hash+casSuffix)
}

// Len reports the number of indexed entries.
func (c *CAS) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes reports the indexed payload size.
func (c *CAS) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
