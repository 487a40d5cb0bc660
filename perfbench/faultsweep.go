package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/sweep"
)

// sweepOptions is one fault profile's sweep over the Figure-3 cells.
func sweepOptions(fp faults.Profile, base int64, workers int, dir string) sweep.Options {
	return sweep.Options{
		Faults:   []faults.Profile{fp},
		Runs:     studyRuns,
		BaseSeed: base,
		Workers:  workers,
		Dir:      dir,
	}
}

// sweepCounts accumulates what the fault-path sweeps did.
type sweepCounts struct {
	warmCells      int
	hits, lookups  int
	failedProfiles map[faults.Profile]int
}

// completed is one profile's cold result inside a cycle: the options to
// replay it and the export the warm passes must reproduce.
type completed struct {
	opts   sweep.Options
	export []byte
}

// coldPass runs each fault profile as its own sweep.Run into a fresh
// cache under dir. A profile whose sweep fails counts every planned cell
// as failed (its export does not exist); the others are returned for the
// warm passes. The pass wall includes the failed profile's partial work.
func coldPass(base int64, workers int, dir string, sc *sweepCounts, t *tally) ([]completed, time.Duration, error) {
	var (
		done []completed
		wall time.Duration
		buf  bytes.Buffer
	)
	for _, fp := range faults.Profiles() {
		o := sweepOptions(fp, base, workers, filepath.Join(dir, fp.String()))
		start := time.Now()
		res, err := sweep.Run(context.Background(), o)
		if err != nil {
			wall += time.Since(start)
			sc.failedProfiles[fp]++
			t.fail(int64(len(sweep.Plan(o))), fmt.Sprintf("fault path %s: %v", fp, err))
			continue
		}
		buf.Reset()
		err = res.WriteCSV(&buf)
		wall += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		t.ok(int64(res.Stats.Computed + res.Stats.CachedHits))
		sc.hits += res.Stats.CachedHits
		sc.lookups += res.Stats.Computed + res.Stats.CachedHits
		done = append(done, completed{opts: o, export: bytes.Clone(buf.Bytes())})
	}
	return done, wall, nil
}

// warmPass replays the completed profiles from their caches; each export
// must be byte-identical to the cold one, with nothing recomputed.
func warmPass(done []completed, sc *sweepCounts, t *tally) (time.Duration, error) {
	var (
		wall time.Duration
		buf  bytes.Buffer
	)
	for _, cp := range done {
		fp := cp.opts.Faults[0]
		start := time.Now()
		res, err := sweep.Run(context.Background(), cp.opts)
		if err != nil {
			wall += time.Since(start)
			t.wrongOutput(int64(len(sweep.Plan(cp.opts))), fmt.Sprintf("warm %s: %v", fp, err))
			continue
		}
		buf.Reset()
		err = res.WriteCSV(&buf)
		wall += time.Since(start)
		if err != nil {
			return 0, err
		}
		n := res.Stats.CachedHits + res.Stats.Computed
		sc.hits += res.Stats.CachedHits
		sc.lookups += n
		sc.warmCells += res.Stats.CachedHits
		if !bytes.Equal(buf.Bytes(), cp.export) || res.Stats.Computed != 0 {
			t.wrongOutput(int64(n), fmt.Sprintf("warm %s base seed %d: export differs from cold (%d recomputed)", fp, cp.opts.BaseSeed, res.Stats.Computed))
		} else {
			t.ok(int64(n))
		}
	}
	return wall, nil
}

// faultLadder runs the fault path once, on every traced run: a cold
// pass of the four fault profiles into a fresh cache, one warm replay of
// the profiles that completed, and the shard-cluster probe over the same
// configuration. The known defects it meets count as failed.
func faultLadder(e *env, base int64, m metrics, t *tally) error {
	dir, err := e.scratchDir("ladder-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sc := &sweepCounts{failedProfiles: map[faults.Profile]int{}}
	done, cold, err := coldPass(base, e.nproc, dir, sc, t)
	if err != nil {
		return err
	}
	warm, err := warmPass(done, sc, t)
	if err != nil {
		return err
	}
	m.set("warm_cells_per_s", float64(sc.warmCells)/warm.Seconds(), "cells/s")
	if sc.lookups > 0 {
		m.set("sweep.hit_ratio", float64(sc.hits)/float64(sc.lookups), "ratio")
	}
	fmt.Fprintf(e.log, "  fault ladder: cold pass %.3f ms (base seed %d, failed profiles %v), warm pass %.3f ms\n",
		ms(cold), base, sc.failedProfiles, ms(warm))
	return poisonProbe(e, t)
}
