package sweep

import (
	"github.com/browsermetric/browsermetric/internal/browser"
	"github.com/browsermetric/browsermetric/internal/core"
	"github.com/browsermetric/browsermetric/internal/faults"
	"github.com/browsermetric/browsermetric/internal/methods"
)

// PlannedCell is one executable cell of a sweep matrix: its identity for
// humans, the exact config it runs under (seed included), and its content
// address in the cache. Skipped (unsupported) combos are absent from a
// plan — they produce no samples and no cache entry.
type PlannedCell struct {
	Faults  faults.Profile
	Method  methods.Kind
	Profile *browser.Profile
	// Config is the cell's full execution config, built by the same
	// core.CellConfig path the study scheduler uses, so executing it
	// out-of-process stores into the same cache entry.
	Config core.Config
	// Hash is the cell's content address under the sweep's salt — the
	// cache file name and the input to shard partitioning.
	Hash string
}

// Plan enumerates every executable cell of the sweep in the deterministic
// matrix order Run executes them: fault-profile major, then method, then
// browser profile. Every process planning the same Options (same ID())
// derives the same cell list with the same content addresses — the
// property the distributed shard runner rests on: the coordinator ships
// only shard numbers, and workers re-derive the cells locally.
func Plan(opts Options) []PlannedCell {
	opts.fillDefaults()
	var out []PlannedCell
	for _, fp := range opts.Faults {
		so := opts.studyOptions(fp)
		for mi := range so.Methods {
			for pi := range so.Profiles {
				cfg, ok := core.CellConfig(&so, mi, pi)
				if !ok {
					continue
				}
				out = append(out, PlannedCell{
					Faults:  fp,
					Method:  so.Methods[mi],
					Profile: so.Profiles[pi],
					Config:  cfg,
					Hash:    KeyFromConfig(cfg, opts.Salt).Hash(),
				})
			}
		}
	}
	return out
}
