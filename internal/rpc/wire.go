// Package rpc is the front door of the replicated store — kvserver's
// only client protocol: a length-prefixed, multiplexed binary
// request/response protocol between clients and kvserver, plus the
// server that speaks it.
//
// One connection carries many requests concurrently: every request is
// tagged with a client-chosen 64-bit ID, responses return the tag, and
// the server completes requests out of order as they commit — so a
// client pipelines an entire window of commands over a single
// connection instead of paying one round trip per command. The codec
// follows the replica wire's zero-allocation discipline (internal/msg):
// requests and responses encode into pooled buffers (msg.GetBuf /
// EncodeTo idiom) and decode by borrowing from the connection's read
// buffer, so the steady-state framing path allocates nothing.
//
// The server side adds admission control: per-connection and global
// in-flight budgets in front of each group's blocking in-flight window.
// A request past either budget is shed immediately with a typed
// wire-level overload status (StatusOverloaded → ErrOverloaded) instead
// of queueing without bound and collapsing latency for everyone;
// shed/accepted/in-flight counters are surfaced through kvserver's
// STATUS verb.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"clockrsm/internal/msg"
	"clockrsm/internal/node"
)

// Magic opens every front-door connection: the client writes these four
// bytes (little-endian on the wire) before its first frame, and the
// server drops connections that open with anything else. The value
// doubles as the protocol version — a framing change bumps the last
// byte.
const Magic uint32 = 0x31505243 // "CRP1" on the wire

// MaxFrame bounds a single front-door frame (request or response),
// mirroring the replica wire's cap so a corrupt length prefix can never
// drive a multi-GiB allocation.
const MaxFrame = msg.MaxFrame

// Verb discriminates the request kind.
type Verb uint8

// Request verbs. The read verbs are node.Host's consistency tiers:
// GETL (linearizable), GETS (session-monotonic sequential, carrying the
// session token both ways), GETA (bounded staleness).
const (
	VPut   Verb = iota + 1 // replicated write: key, value
	VGet                   // replicated read (the strongest, slowest read): key
	VDel                   // replicated delete: key
	VGetL                  // linearizable local read: key
	VGetS                  // sequential read: key + session token
	VGetA                  // stale read: key + max age
	VAdmin                 // operator verb: value carries one admin line (MEMBERS, STATUS, ...)
	maxVerb
)

var verbNames = map[Verb]string{
	VPut: "PUT", VGet: "GET", VDel: "DEL",
	VGetL: "GETL", VGetS: "GETS", VGetA: "GETA", VAdmin: "ADMIN",
}

// String names the verb.
func (v Verb) String() string {
	if n, ok := verbNames[v]; ok {
		return n
	}
	return fmt.Sprintf("Verb(%d)", uint8(v))
}

// valid reports whether v is a known request verb.
func (v Verb) valid() bool { return v >= VPut && v < maxVerb }

// Status is the response outcome. Every status except StatusOK maps to
// a typed error (see Status.Err), so a remote client makes the same
// resubmit-safety decisions a local node.Propose caller would.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota + 1
	// StatusErr is a generic server-side failure; the response value
	// carries the message. Resubmit safety is unknown.
	StatusErr
	// StatusBadRequest reports a malformed or unknown request. The
	// server kills the connection after sending it: framing state past a
	// bad frame is untrustworthy.
	StatusBadRequest
	// StatusOverloaded is the typed load-shedding status: the request
	// exceeded the per-connection or global in-flight budget and was
	// never admitted — it never reached the replication stack, so
	// resubmitting (after backing off) is always safe.
	StatusOverloaded
	// StatusNotInConfig mirrors node.ErrNotInConfig: the serving replica
	// is outside the current configuration and the command never
	// executed anywhere. Fail over and resubmit freely.
	StatusNotInConfig
	// StatusReconfigured mirrors node.ErrReconfigured: a reconfiguration
	// discarded the command before it reached a majority; it can never
	// execute in any epoch. Resubmit freely.
	StatusReconfigured
	// StatusTooStale mirrors node.ErrTooStale for bounded-staleness
	// reads.
	StatusTooStale
	// StatusStopped mirrors node.ErrStopped: the replica is shutting
	// down.
	StatusStopped
	// StatusTimeout reports that the server-side wait bound expired
	// before the command resolved. The command may still commit later —
	// resubmit safety is unknown for writes.
	StatusTimeout
	// StatusWrongGroup mirrors node.ErrWrongGroup: the command's key
	// migrated to another replication group (a live split) and the
	// command was fenced without executing. Resubmitting is always safe;
	// the server retries through the refreshed routing table itself, so
	// a client normally only sees this when a migration outlives the
	// server-side wait bound.
	StatusWrongGroup
	maxStatus
)

var statusNames = map[Status]string{
	StatusOK: "OK", StatusErr: "ERR", StatusBadRequest: "BADREQ",
	StatusOverloaded: "OVERLOADED", StatusNotInConfig: "NOTINCONFIG",
	StatusReconfigured: "RECONFIGURED", StatusTooStale: "TOOSTALE",
	StatusStopped: "STOPPED", StatusTimeout: "TIMEOUT",
	StatusWrongGroup: "WRONGGROUP",
}

// String names the status.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// valid reports whether s is a known response status.
func (s Status) valid() bool { return s >= StatusOK && s < maxStatus }

// Errors surfaced by the front door. ErrOverloaded is the wire-level
// overload error clients receive when the server shed their request;
// the remaining typed statuses map back to the node package's existing
// error contract (node.ErrNotInConfig, node.ErrReconfigured, ...).
var (
	ErrOverloaded = errors.New("rpc: server overloaded, request shed")
	ErrBadRequest = errors.New("rpc: bad request")
	ErrTimeout    = errors.New("rpc: server-side wait bound expired")
	// ErrBadMagic reports a connection that did not open with Magic.
	ErrBadMagic = errors.New("rpc: bad connection magic")
	// errTruncated / errFrame are codec-internal decode failures.
	errTruncated = errors.New("rpc: truncated frame")
	errFrame     = errors.New("rpc: oversized or malformed frame")
)

// Err converts a response status into the typed error contract, reusing
// the node package's sentinels so errors.Is works identically for local
// and remote callers. detail carries the server's message text for the
// generic statuses.
func (s Status) Err(detail []byte) error {
	switch s {
	case StatusOK:
		return nil
	case StatusOverloaded:
		return ErrOverloaded
	case StatusNotInConfig:
		return node.ErrNotInConfig
	case StatusReconfigured:
		return node.ErrReconfigured
	case StatusTooStale:
		return node.ErrTooStale
	case StatusStopped:
		return node.ErrStopped
	case StatusTimeout:
		return ErrTimeout
	case StatusWrongGroup:
		return node.ErrWrongGroup
	case StatusBadRequest:
		if len(detail) > 0 {
			return fmt.Errorf("%w: %s", ErrBadRequest, detail)
		}
		return ErrBadRequest
	default:
		if len(detail) > 0 {
			return fmt.Errorf("rpc: server error: %s", detail)
		}
		return fmt.Errorf("rpc: server error (%v)", s)
	}
}

// StatusFor maps a server-side error onto the wire status carrying it,
// the inverse of Status.Err.
func StatusFor(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, node.ErrNotInConfig):
		return StatusNotInConfig
	case errors.Is(err, node.ErrReconfigured):
		return StatusReconfigured
	case errors.Is(err, node.ErrTooStale):
		return StatusTooStale
	case errors.Is(err, node.ErrStopped):
		return StatusStopped
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, node.ErrWrongGroup):
		return StatusWrongGroup
	case errors.Is(err, ErrTimeout):
		return StatusTimeout
	default:
		return StatusErr
	}
}

// Request is one decoded front-door request. After DecodeRequest, Key
// and Value borrow the input buffer: they are valid only until the
// caller reuses it (the same contract as msg.DecodeRecycled — copy what
// you keep).
type Request struct {
	ID   uint64
	Verb Verb
	Key  []byte
	// Value is the write payload (VPut), the admin line (VAdmin), and
	// unused otherwise. A nil Value round-trips as nil.
	Value []byte
	// Session is the sequential-read session token (VGetS): the newest
	// watermark a read through this session has observed. The response
	// returns the served watermark so the client advances the token —
	// session stickiness survives failover because the token, not the
	// connection, carries the monotonicity state.
	Session int64
	// MaxAge bounds a stale read (VGetA) in nanoseconds; ≤ 0 serves
	// unconditionally.
	MaxAge int64
}

// Response is one decoded front-door response.
type Response struct {
	ID     uint64
	Status Status
	// Value is the result (previous or read value; admin reply text for
	// VAdmin; error detail for the generic failure statuses). nil and
	// empty are distinguished on the wire.
	Value []byte
	// Watermark is the executed watermark a local read was served at
	// (zero for writes and replicated reads). GETS clients fold it into
	// their session token.
	Watermark int64
}

// nilLen is the length-prefix sentinel distinguishing a nil byte slice
// from an empty one ("key absent" vs "empty value" must survive the
// wire).
const nilLen = ^uint32(0)

func appendBytes(b, p []byte) []byte {
	if p == nil {
		return binary.LittleEndian.AppendUint32(b, nilLen)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func getBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errTruncated
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if n == nilLen {
		return nil, b, nil
	}
	if n > MaxFrame || uint64(len(b)) < uint64(n) {
		return nil, nil, errTruncated
	}
	// Borrowed, not copied: valid until the caller reuses the buffer.
	return b[:n:n], b[n:], nil
}

// AppendRequest appends req to b as one length-prefixed frame
// ([4-byte length | verb | id | session | maxage | key | value]) and
// returns the extended slice. With a reused buffer it allocates
// nothing.
func AppendRequest(b []byte, req *Request) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length back-patched below
	b = append(b, byte(req.Verb))
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	b = binary.LittleEndian.AppendUint64(b, uint64(req.Session))
	b = binary.LittleEndian.AppendUint64(b, uint64(req.MaxAge))
	b = appendBytes(b, req.Key)
	b = appendBytes(b, req.Value)
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// DecodeRequest parses one frame payload (without the length prefix)
// into req. Key and Value borrow payload.
func DecodeRequest(payload []byte, req *Request) error {
	if len(payload) < 1+8+8+8 {
		return errTruncated
	}
	req.Verb = Verb(payload[0])
	if !req.Verb.valid() {
		return fmt.Errorf("%w: unknown verb %d", errFrame, payload[0])
	}
	req.ID = binary.LittleEndian.Uint64(payload[1:])
	req.Session = int64(binary.LittleEndian.Uint64(payload[9:]))
	req.MaxAge = int64(binary.LittleEndian.Uint64(payload[17:]))
	rest := payload[25:]
	var err error
	if req.Key, rest, err = getBytes(rest); err != nil {
		return err
	}
	if req.Value, rest, err = getBytes(rest); err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errFrame, len(rest))
	}
	return nil
}

// AppendResponse appends resp to b as one length-prefixed frame
// ([4-byte length | status | id | watermark | value]).
func AppendResponse(b []byte, resp *Response) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = append(b, byte(resp.Status))
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	b = binary.LittleEndian.AppendUint64(b, uint64(resp.Watermark))
	b = appendBytes(b, resp.Value)
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// DecodeResponse parses one frame payload into resp. Value borrows
// payload.
func DecodeResponse(payload []byte, resp *Response) error {
	if len(payload) < 1+8+8 {
		return errTruncated
	}
	resp.Status = Status(payload[0])
	if !resp.Status.valid() {
		return fmt.Errorf("%w: unknown status %d", errFrame, payload[0])
	}
	resp.ID = binary.LittleEndian.Uint64(payload[1:])
	resp.Watermark = int64(binary.LittleEndian.Uint64(payload[9:]))
	rest := payload[17:]
	var err error
	if resp.Value, rest, err = getBytes(rest); err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errFrame, len(rest))
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r into *buf (growing
// it as needed, retained across calls) and returns the payload slice,
// which aliases *buf and is valid until the next call with the same
// buffer. A length above MaxFrame fails with errFrame — the connection
// is corrupt and must be dropped.
func ReadFrame(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d-byte frame", errFrame, n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// WriteMagic writes the connection-opening magic word.
func WriteMagic(w io.Writer) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], Magic)
	_, err := w.Write(b[:])
	return err
}

// ReadMagic validates the connection-opening magic word.
func ReadMagic(r io.Reader) error {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(b[:]) != Magic {
		return ErrBadMagic
	}
	return nil
}
