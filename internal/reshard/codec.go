package reshard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"clockrsm/internal/types"
)

// Control command op bytes. They live far above the kvstore op space
// (1..3) so a control payload can never be mistaken for a data command
// by any decoder, old or new.
const (
	// OpFence fences a slot set at the source group: replicated in the
	// source's own log, so the fence point is a position in the group's
	// total order — every replica stops applying writes to the moving
	// slots at exactly the same command.
	OpFence byte = 200
	// OpInstall seeds the target group with the fenced slots' pairs and
	// (on the final chunk) flips their claims to Owned at the target.
	OpInstall byte = 201
)

// IsControl reports whether payload is a reshard control command.
func IsControl(payload []byte) bool {
	return len(payload) > 0 && payload[0] >= OpFence
}

// ErrBadTable reports a malformed routing-table encoding.
var ErrBadTable = errors.New("reshard: bad routing table encoding")

// ErrBadControl reports a malformed control command payload.
var ErrBadControl = errors.New("reshard: bad control command")

// The routing table, the control commands' bodies and the snapshot
// header are plain JSON (json.Marshal of Table, Fence, Install), so a
// <log>.routes file reads with any JSON tool. None of it is on the
// per-operation path.

// EncodeTable renders t in the wire/persist format.
func EncodeTable(t *Table) []byte {
	b, _ := json.Marshal(t)
	return b
}

// DecodeTable parses an EncodeTable blob.
func DecodeTable(buf []byte) (*Table, error) {
	t := new(Table)
	if err := strictJSON(buf, t); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTable, err)
	}
	return t.checked()
}

// checked rejects a decoded table with no slots, more than 1<<20
// slots, an unknown phase or a negative group, and indexes the rest
// for sharing.
func (t *Table) checked() (*Table, error) {
	if t == nil || len(t.Slots) == 0 || len(t.Slots) > 1<<20 {
		return nil, ErrBadTable
	}
	for _, c := range t.Slots {
		if (c.Phase != Owned && c.Phase != Migrating) || c.Owner < 0 || c.To < 0 {
			return nil, ErrBadTable
		}
	}
	return t.reindex(), nil
}

// strictJSON decodes b into v, rejecting unknown fields and trailing
// data.
func strictJSON(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// Save atomically persists t at path (write temp, fsync, rename), so a
// crash mid-save leaves either the old table or the new one, never a
// torn file.
func Save(t *Table, path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(EncodeTable(t)); err != nil {
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
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Load reads a table persisted by Save. A missing file returns
// (nil, nil): the caller synthesizes the legacy table.
func Load(path string) (*Table, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	t, err := DecodeTable(buf)
	if err != nil {
		return nil, fmt.Errorf("%w (at %s)", err, path)
	}
	return t, nil
}

// Fence is the decoded form of an OpFence control command.
type Fence struct {
	// Gen is the generation the fence (and the matching install)
	// claims the slots at.
	Gen uint32
	// From is the source group — the group whose log carries the fence.
	From types.GroupID
	// To is the migration target the fenced writes redirect to.
	To types.GroupID
	// Slots are the fenced slots.
	Slots []uint32
}

// EncodeFence renders f as a control payload: OpFence, then f as
// JSON.
func EncodeFence(f Fence) []byte {
	b, _ := json.Marshal(f)
	return append([]byte{OpFence}, b...)
}

// DecodeFence parses an OpFence payload.
func DecodeFence(buf []byte) (Fence, error) {
	var f Fence
	if len(buf) == 0 || buf[0] != OpFence || strictJSON(buf[1:], &f) != nil || !validControl(f.Slots, f.From, f.To) {
		return Fence{}, ErrBadControl
	}
	return f, nil
}

// validControl reports whether a decoded control command names at
// least one and at most 1<<20 slots and two non-negative groups.
func validControl(slots []uint32, from, to types.GroupID) bool {
	return len(slots) > 0 && len(slots) <= 1<<20 && from >= 0 && to >= 0
}

// Pair is one key/value to seed into the target group. The key is
// bytes, not a string, so it survives JSON whatever its encoding.
type Pair struct {
	Key   []byte
	Value []byte
}

// Install is the decoded form of an OpInstall control command: one
// chunk of the seed transfer. The final chunk additionally flips the
// slots' claims to Owned at To.
type Install struct {
	// Gen matches the fence that froze the slots.
	Gen uint32
	// From is the source group the slots move away from.
	From types.GroupID
	// To is the group whose log carries the install.
	To types.GroupID
	// Final marks the last chunk: applying it completes the migration.
	Final bool
	// Slots are the migrating slots (carried on every chunk so a
	// restart can reconstruct the claim set from any suffix).
	Slots []uint32
	// Pairs are this chunk's seed data.
	Pairs []Pair
}

// EncodeInstall renders in as a control payload: OpInstall, then in
// as JSON.
func EncodeInstall(in Install) []byte {
	b, _ := json.Marshal(in)
	return append([]byte{OpInstall}, b...)
}

// DecodeInstall parses an OpInstall payload.
func DecodeInstall(buf []byte) (Install, error) {
	var in Install
	if len(buf) == 0 || buf[0] != OpInstall || strictJSON(buf[1:], &in) != nil || !validControl(in.Slots, in.From, in.To) {
		return Install{}, ErrBadControl
	}
	return in, nil
}
