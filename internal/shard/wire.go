// Package shard is the distributed sweep runner: a coordinator process
// partitions the sweep's cell matrix into shards (rendezvous-hashed over
// cell content addresses, so the assignment is a pure function of the
// sweep configuration), leases shards to worker processes over a small
// framed control protocol, and — once every shard is done — replays the
// whole sweep warm from the shared content-addressed cache, producing a
// CSV/report byte-identical to a single-process run. The cache is the
// only state the cluster shares.
//
// Design rules, inherited from the fleet plane and the sweep cache:
//
//   - coordination stays off the per-cell compute path: the control
//     protocol exchanges shard numbers and lease renewals, never cell
//     configs or samples (workers re-derive the cell list from the same
//     sweep options, verified by the sweep configuration ID at Hello);
//   - every frame is length-prefixed and CRC-32C checksummed (the
//     fleetwire framing discipline), so a torn stream or bit flip is a
//     counted rejection at the frame boundary, never a misparsed lease;
//   - worker death is survivable by construction: per-cell cache files
//     are content-addressed, self-checking and written temp-then-rename,
//     so a reassigned shard replays the dead worker's completed cells
//     from the cache instead of recomputing them, and the final merged
//     output cannot depend on which worker computed what.
//
// Frame layout (integers little-endian):
//
//	[4]byte  magic "bmsh"
//	u16      wire version (Version)
//	u16      message type
//	u32      payload length
//	payload  (per-type encoding, uvarint-length strings)
//	u32      CRC-32 (Castagnoli) over version, type, length and payload
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Version is the control-protocol version this package speaks.
const Version = 1

// magic opens every control frame.
var magic = [4]byte{'b', 'm', 's', 'h'}

const (
	headerLen = 12 // magic + version + type + payload length
	crcLen    = 4

	// maxPayload bounds one control frame. Control messages are tens of
	// bytes; the cap keeps a corrupt length prefix from becoming an
	// allocation bomb.
	maxPayload = 1 << 16

	// maxName bounds a worker name; names are further restricted to
	// [A-Za-z0-9._-] at Hello.
	maxName = 64
	// maxReason bounds a rejection reason string.
	maxReason = 512
	// sweepIDLen is the exact length of a sweep configuration ID
	// (lowercase hex SHA-256).
	sweepIDLen = 64
)

// Sentinel errors; DecodeMsg wraps them with positional detail.
var (
	// ErrTruncated marks an input that ends mid-frame: a stream reader
	// may retry with more bytes.
	ErrTruncated = errors.New("shard: truncated frame")
	// ErrCorrupt marks a structurally invalid or checksum-failing frame.
	ErrCorrupt = errors.New("shard: corrupt frame")
	// ErrVersion marks a well-formed frame of an unsupported version.
	ErrVersion = errors.New("shard: unsupported wire version")
)

// MsgType enumerates the control messages.
type MsgType uint16

const (
	// MsgHello (worker→coordinator) opens a session: the worker's name
	// and the sweep configuration ID it derived from its flags.
	MsgHello MsgType = 1
	// MsgHelloAck (coordinator→worker) accepts or rejects the session.
	MsgHelloAck MsgType = 2
	// MsgLeaseReq (worker→coordinator) asks for a shard lease.
	MsgLeaseReq MsgType = 3
	// MsgLeaseGrant (coordinator→worker) leases one shard: the worker
	// re-derives the shard's cells from (shard, shards) locally.
	MsgLeaseGrant MsgType = 4
	// MsgNoWork (coordinator→worker) reports every shard is leased but
	// not all are done; retry after the hinted delay.
	MsgNoWork MsgType = 5
	// MsgAllDone (coordinator→worker) reports the sweep is complete; the
	// worker exits.
	MsgAllDone MsgType = 6
	// MsgRenew (worker→coordinator) extends a lease mid-shard.
	MsgRenew MsgType = 7
	// MsgRenewAck (coordinator→worker) confirms or revokes the lease.
	MsgRenewAck MsgType = 8
	// MsgShardDone (worker→coordinator) reports a completed shard with
	// its computed/cached cell counts.
	MsgShardDone MsgType = 9
	// MsgDoneAck (coordinator→worker) acknowledges MsgShardDone.
	MsgDoneAck MsgType = 10
)

// String names the message type for logs.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgLeaseReq:
		return "lease-req"
	case MsgLeaseGrant:
		return "lease-grant"
	case MsgNoWork:
		return "no-work"
	case MsgAllDone:
		return "all-done"
	case MsgRenew:
		return "renew"
	case MsgRenewAck:
		return "renew-ack"
	case MsgShardDone:
		return "shard-done"
	case MsgDoneAck:
		return "done-ack"
	}
	return fmt.Sprintf("shard.MsgType(%d)", uint16(t))
}

// Msg is one decoded control message. Which fields are meaningful
// depends on Type; encoding writes only the fields the type defines, so
// stray fields can never leak onto the wire.
type Msg struct {
	Type MsgType

	// Name and SweepID travel in MsgHello.
	Name    string
	SweepID string
	// OK rides MsgHelloAck / MsgRenewAck / MsgDoneAck; Reason explains a
	// rejection (MsgHelloAck only).
	OK     bool
	Reason string
	// Shard/Shards identify a shard of a fixed partition count
	// (MsgLeaseGrant, MsgRenew, MsgShardDone; Shards also in MsgHelloAck).
	Shard  uint32
	Shards uint32
	// TTL is the lease duration (MsgLeaseGrant); Retry the no-work
	// backoff hint (MsgNoWork).
	TTL   time.Duration
	Retry time.Duration
	// Done counts cells finished so far in the renewed shard (MsgRenew).
	// Computed/Cached are the completed shard's counts (MsgShardDone).
	Done             uint32
	Computed, Cached uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendMsg appends the canonical encoding of m to b.
func AppendMsg(b []byte, m *Msg) ([]byte, error) {
	var payload []byte
	switch m.Type {
	case MsgHello:
		if len(m.Name) == 0 || len(m.Name) > maxName {
			return nil, fmt.Errorf("shard: worker name %q out of range", m.Name)
		}
		if len(m.SweepID) != sweepIDLen {
			return nil, fmt.Errorf("shard: sweep ID length %d, want %d", len(m.SweepID), sweepIDLen)
		}
		payload = appendString(payload, m.Name)
		payload = appendString(payload, m.SweepID)
	case MsgHelloAck:
		if len(m.Reason) > maxReason {
			return nil, fmt.Errorf("shard: reason too long")
		}
		payload = appendBool(payload, m.OK)
		payload = appendString(payload, m.Reason)
		payload = binary.LittleEndian.AppendUint32(payload, m.Shards)
	case MsgLeaseReq, MsgAllDone:
		// empty payload
	case MsgLeaseGrant:
		payload = binary.LittleEndian.AppendUint32(payload, m.Shard)
		payload = binary.LittleEndian.AppendUint32(payload, m.Shards)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(m.TTL))
	case MsgNoWork:
		payload = binary.LittleEndian.AppendUint64(payload, uint64(m.Retry))
	case MsgRenew:
		payload = binary.LittleEndian.AppendUint32(payload, m.Shard)
		payload = binary.LittleEndian.AppendUint32(payload, m.Done)
	case MsgRenewAck, MsgDoneAck:
		payload = appendBool(payload, m.OK)
	case MsgShardDone:
		payload = binary.LittleEndian.AppendUint32(payload, m.Shard)
		payload = binary.LittleEndian.AppendUint32(payload, m.Computed)
		payload = binary.LittleEndian.AppendUint32(payload, m.Cached)
	default:
		return nil, fmt.Errorf("shard: cannot encode message type %v", m.Type)
	}
	start := len(b)
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, uint16(m.Type))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	// The CRC covers everything after the magic — version, type, length
	// and payload — so a flipped type field cannot alias two messages
	// that share a payload shape.
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start+4:], castagnoli))
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// DecodeMsg parses the first control frame in b and returns it with the
// number of bytes consumed. Errors wrap ErrTruncated (incomplete input),
// ErrVersion (recognizable frame of another version; consumed reports
// the full frame length so a stream can skip it) or ErrCorrupt.
func DecodeMsg(b []byte) (*Msg, int, error) {
	if len(b) < headerLen {
		return nil, 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if [4]byte(b[:4]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint16(b[4:])
	typ := MsgType(binary.LittleEndian.Uint16(b[6:]))
	payloadLen := int(binary.LittleEndian.Uint32(b[8:]))
	if payloadLen > maxPayload {
		return nil, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, payloadLen)
	}
	total := headerLen + payloadLen + crcLen
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: have %d of %d bytes", ErrTruncated, len(b), total)
	}
	if version != Version {
		return nil, total, fmt.Errorf("%w: got %d, want %d", ErrVersion, version, Version)
	}
	payload := b[headerLen : headerLen+payloadLen]
	wantCRC := binary.LittleEndian.Uint32(b[headerLen+payloadLen:])
	if crc32.Checksum(b[4:headerLen+payloadLen], castagnoli) != wantCRC {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	m, err := decodePayload(typ, payload)
	if err != nil {
		return nil, 0, err
	}
	return m, total, nil
}

func decodePayload(typ MsgType, p []byte) (*Msg, error) {
	d := wireReader{buf: p}
	m := &Msg{Type: typ}
	ok := true
	switch typ {
	case MsgHello:
		if m.Name, ok = d.str(maxName); !ok || m.Name == "" {
			return nil, fmt.Errorf("%w: hello name", ErrCorrupt)
		}
		if m.SweepID, ok = d.str(sweepIDLen); !ok || len(m.SweepID) != sweepIDLen {
			return nil, fmt.Errorf("%w: hello sweep ID", ErrCorrupt)
		}
	case MsgHelloAck:
		if m.OK, ok = d.boolean(); !ok {
			return nil, fmt.Errorf("%w: hello-ack flag", ErrCorrupt)
		}
		if m.Reason, ok = d.str(maxReason); !ok {
			return nil, fmt.Errorf("%w: hello-ack reason", ErrCorrupt)
		}
		if m.Shards, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: hello-ack shards", ErrCorrupt)
		}
	case MsgLeaseReq, MsgAllDone:
		// empty payload
	case MsgLeaseGrant:
		var ttl uint64
		if m.Shard, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: grant shard", ErrCorrupt)
		}
		if m.Shards, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: grant shards", ErrCorrupt)
		}
		if ttl, ok = d.u64(); !ok || ttl > uint64(time.Hour) {
			return nil, fmt.Errorf("%w: grant ttl", ErrCorrupt)
		}
		if m.Shards == 0 || m.Shard >= m.Shards {
			return nil, fmt.Errorf("%w: grant shard %d of %d", ErrCorrupt, m.Shard, m.Shards)
		}
		m.TTL = time.Duration(ttl)
	case MsgNoWork:
		var retry uint64
		if retry, ok = d.u64(); !ok || retry > uint64(time.Hour) {
			return nil, fmt.Errorf("%w: no-work retry", ErrCorrupt)
		}
		m.Retry = time.Duration(retry)
	case MsgRenew:
		if m.Shard, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: renew shard", ErrCorrupt)
		}
		if m.Done, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: renew done", ErrCorrupt)
		}
	case MsgRenewAck, MsgDoneAck:
		if m.OK, ok = d.boolean(); !ok {
			return nil, fmt.Errorf("%w: ack flag", ErrCorrupt)
		}
	case MsgShardDone:
		if m.Shard, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: done shard", ErrCorrupt)
		}
		if m.Computed, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: done computed", ErrCorrupt)
		}
		if m.Cached, ok = d.u32(); !ok {
			return nil, fmt.Errorf("%w: done cached", ErrCorrupt)
		}
	default:
		return nil, fmt.Errorf("%w: unknown message type %d", ErrCorrupt, uint16(typ))
	}
	if d.off != len(p) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p)-d.off)
	}
	return m, nil
}

// uvarintLen is the minimal encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// wireReader is a bounds-checked cursor over one payload.
type wireReader struct {
	buf []byte
	off int
}

func (d *wireReader) u32() (uint32, bool) {
	if d.off+4 > len(d.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, true
}

func (d *wireReader) u64() (uint64, bool) {
	if d.off+8 > len(d.buf) {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, true
}

func (d *wireReader) boolean() (bool, bool) {
	if d.off >= len(d.buf) || d.buf[d.off] > 1 {
		return false, false
	}
	v := d.buf[d.off] == 1
	d.off++
	return v, true
}

func (d *wireReader) str(max int) (string, bool) {
	n, sz := binary.Uvarint(d.buf[d.off:])
	if sz <= 0 || n > uint64(max) || d.off+sz+int(n) > len(d.buf) {
		return "", false
	}
	// Reject non-minimal varints so every accepted frame has exactly one
	// encoding (the fuzz harness asserts decode∘encode is the identity).
	if sz != uvarintLen(n) {
		return "", false
	}
	d.off += sz
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, true
}
