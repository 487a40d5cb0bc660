package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/obs"
)

// Cache is the content-addressed cell store: one file per cell under
// <dir>/cells, named by the cell's key hash, holding the cell's samples
// in the self-checking bmcell format. It implements core.CellCache.
//
// Load and Store are safe for concurrent use by study workers: distinct
// cells touch distinct files, and identical cells write identical bytes
// (last rename wins harmlessly).
type Cache struct {
	dir     string
	salt    string
	logf    func(format string, args ...any)
	metrics *obs.Metrics

	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
	stores  atomic.Int64
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	// Hits counts Loads served from disk; Misses counts absent entries.
	Hits, Misses int64
	// Corrupt counts entries that existed but failed verification
	// (checksum, framing, or key mismatch) and were discarded — each is
	// also counted as a miss, since the caller recomputes.
	Corrupt int64
	// Stores counts cells persisted.
	Stores int64
}

// OpenCache opens (creating if needed) a cache rooted at dir, keyed with
// salt (DefaultSalt when empty).
func OpenCache(dir, salt string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: cache dir must not be empty")
	}
	if salt == "" {
		salt = DefaultSalt
	}
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir, salt: salt, logf: func(string, ...any) {}}, nil
}

// SetLog installs a printf-style logger for corruption and recompute
// notices (nil silences them, the default).
func (c *Cache) SetLog(fn func(format string, args ...any)) {
	if fn == nil {
		fn = func(string, ...any) {}
	}
	c.logf = fn
}

// SetMetrics exports the cache's counters through a wall-clock metrics
// registry as sweep_cache_* series, so sweep health is scrapeable like
// everything else. nil (the default) disables the export at zero cost.
// Call before the sweep starts; the Load/Store paths read the registry
// without synchronization.
func (c *Cache) SetMetrics(m *obs.Metrics) {
	c.metrics = m
	if !m.Enabled() {
		return
	}
	m.SetHelp("sweep_cache_hits_total", "Cells replayed from the content-addressed cache.")
	m.SetHelp("sweep_cache_misses_total", "Cache lookups that required recomputation (absent or corrupt entries).")
	m.SetHelp("sweep_cache_corrupt_total", "Cache entries that failed verification and were discarded (each also counts as a miss).")
	m.SetHelp("sweep_cache_stores_total", "Cells persisted to the cache.")
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Key returns the content-address key of a cell config under the cache's
// salt.
func (c *Cache) Key(cfg core.Config) Key { return KeyFromConfig(cfg, c.salt) }

// Stats snapshots the hit/miss/corruption counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
		Stores:  c.stores.Load(),
	}
}

func (c *Cache) cellPath(hash string) string {
	return filepath.Join(c.dir, "cells", hash+".cell")
}

// Load implements core.CellCache: it returns the cached experiment for
// cfg, or ok=false on a miss. A corrupt entry (flipped byte, truncation,
// key mismatch) is detected by the file's checksum, logged, deleted, and
// reported as a miss so the scheduler recomputes — it can never surface
// as data.
func (c *Cache) Load(cfg core.Config) (*core.Experiment, bool) {
	hash := c.Key(cfg).Hash()
	data, err := os.ReadFile(c.cellPath(hash))
	if err != nil {
		c.misses.Add(1)
		c.metrics.Add("sweep_cache_misses_total", 1)
		return nil, false
	}
	storedKey, samples, derr := decodeCell(data)
	if derr == nil && storedKey != hash {
		derr = fmt.Errorf("sweep: cell file: stored key %s != expected %s", storedKey[:8], hash[:8])
	}
	if derr != nil {
		c.corrupt.Add(1)
		c.misses.Add(1)
		c.metrics.Add("sweep_cache_corrupt_total", 1)
		c.metrics.Add("sweep_cache_misses_total", 1)
		c.logf("sweep: corrupt cache entry for %s: %v; recomputing", c.Key(cfg), derr)
		os.Remove(c.cellPath(hash))
		return nil, false
	}
	c.hits.Add(1)
	c.metrics.Add("sweep_cache_hits_total", 1)
	// Reconstruct the experiment exactly as RunContext would have left
	// it: the normalized config plus the stored samples. Every derived
	// statistic and export is a pure function of these, so the replay is
	// bit-identical to recomputation.
	cfg.Normalize()
	return &core.Experiment{Config: cfg, Samples: samples}, true
}

// Store implements core.CellCache: it persists a completed cell
// atomically (temp file + rename), so a killed sweep leaves either the
// complete entry or none.
func (c *Cache) Store(cfg core.Config, exp *core.Experiment) error {
	hash := c.Key(cfg).Hash()
	data := encodeCell(hash, exp.Samples)
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "cells"), hash+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.cellPath(hash)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: store cell: %w", err)
	}
	c.stores.Add(1)
	c.metrics.Add("sweep_cache_stores_total", 1)
	return nil
}
