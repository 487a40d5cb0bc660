// Package sweep turns the study scheduler into a resumable, cache-backed
// sweep engine. Each cell of a methods × browsers × fault-profiles matrix
// is content-addressed by the SHA-256 of its full configuration (plus a
// code-version salt) and its samples are persisted byte-exactly on disk,
// one atomically written file per completed cell. That cache is the
// sweep's only state: a killed sweep resumes by rerunning against the
// same directory, replaying the finished cells. The repo's determinism
// contract — byte-identical exports at any worker count — is what makes
// the cache sound, and the package's tests extend that contract to
// "cached replay is bit-identical to recomputation".
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"github.com/browsermetric/browsermetric/internal/core"
)

// DefaultSalt versions the simulation semantics baked into cached cells.
// Bump it whenever a change anywhere in the simulator, methods, browser
// models, or fault profiles can alter a cell's samples: old entries then
// miss (they hash under the old salt) and are recomputed rather than
// silently replayed stale.
const DefaultSalt = "bmsweep-v1"

// Key is the flattened, canonical identity of one study cell: every field
// of core.Config and testbed.Config that can influence a measurement,
// plus the code-version salt. Observational fields (Tracer, Metrics) are
// deliberately absent — they cannot change any simulated outcome.
//
// TestKeyCoversEveryConfigField reflectively mutates every field of the
// config structs and asserts the key changes, so a new knob that is not
// threaded through KeyFromConfig fails the build's tests instead of
// silently aliasing distinct cells.
type Key struct {
	Salt    string
	Method  string
	Browser string
	OS      string
	// Load is the profile's background system-load factor: a WithLoad
	// variant measures different overheads than its idle base profile.
	Load   float64
	Timing string
	Runs   int
	GapNs  int64
	WarpNs int64
	Seed   int64

	// Testbed knobs (normalized: zero means the paper default, hashed as
	// that default so the two spellings name the same cell).
	ServerDelayNs     int64
	LinkRateBps       int64
	PropagationNs     int64
	LossRate          float64
	ServerParseCostNs int64
	Faults            string
}

// KeyFromConfig flattens a cell config into its canonical Key. The config
// is normalized first, so zero-valued knobs and their explicit paper
// defaults hash identically — exactly the equivalence RunContext applies
// when executing.
func KeyFromConfig(cfg core.Config, salt string) Key {
	if salt == "" {
		salt = DefaultSalt
	}
	cfg.Normalize()
	tb := cfg.Testbed
	tb.Normalize()
	k := Key{
		Salt:              salt,
		Method:            cfg.Method.String(),
		Timing:            cfg.Timing.String(),
		Runs:              cfg.Runs,
		GapNs:             int64(cfg.Gap),
		WarpNs:            int64(cfg.Warp),
		Seed:              tb.Seed,
		ServerDelayNs:     int64(tb.ServerDelay),
		LinkRateBps:       tb.LinkRate,
		PropagationNs:     int64(tb.Propagation),
		LossRate:          tb.LossRate,
		ServerParseCostNs: int64(tb.ServerParseCost),
		Faults:            tb.Faults.String(),
	}
	if cfg.Profile != nil {
		k.Browser = cfg.Profile.Browser.String()
		k.OS = cfg.Profile.OS.String()
		k.Load = cfg.Profile.Load()
	}
	return k
}

// Canonical renders the key as its canonical byte serialization: a fixed
// header and one name=value line per field, in declaration order. Floats
// are hex-formatted ('x'), which round-trips every bit of the float64 —
// two keys serialize identically iff they are equal.
func (k Key) Canonical() []byte {
	var b bytes.Buffer
	b.WriteString("browsermetric cell key v1\n")
	w := func(name, val string) {
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(val)
		b.WriteByte('\n')
	}
	w("salt", k.Salt)
	w("method", k.Method)
	w("browser", k.Browser)
	w("os", k.OS)
	w("load", strconv.FormatFloat(k.Load, 'x', -1, 64))
	w("timing", k.Timing)
	w("runs", strconv.Itoa(k.Runs))
	w("gap_ns", strconv.FormatInt(k.GapNs, 10))
	w("warp_ns", strconv.FormatInt(k.WarpNs, 10))
	w("seed", strconv.FormatInt(k.Seed, 10))
	w("server_delay_ns", strconv.FormatInt(k.ServerDelayNs, 10))
	w("link_rate_bps", strconv.FormatInt(k.LinkRateBps, 10))
	w("propagation_ns", strconv.FormatInt(k.PropagationNs, 10))
	w("loss_rate", strconv.FormatFloat(k.LossRate, 'x', -1, 64))
	w("server_parse_cost_ns", strconv.FormatInt(k.ServerParseCostNs, 10))
	w("faults", k.Faults)
	return b.Bytes()
}

// Hash returns the cell's content address: the lowercase hex SHA-256 of
// the canonical serialization.
func (k Key) Hash() string {
	sum := sha256.Sum256(k.Canonical())
	return hex.EncodeToString(sum[:])
}

// String identifies the cell for logs: "<method>/<browser> (<os>)/<faults>@<hash8>".
func (k Key) String() string {
	return fmt.Sprintf("%s/%s (%s)/%s@%s", k.Method, k.Browser, k.OS, k.Faults, k.Hash()[:8])
}
