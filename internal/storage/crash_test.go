package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"clockrsm/internal/types"
)

// buildCrashFixture produces a log file exercising every record kind:
// a checkpoint record followed by PREPARE and COMMIT entries.
func buildCrashFixture(t *testing.T, path string) []byte {
	t.Helper()
	l, err := OpenFileLog(path, FileLogOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ts := func(w int64) types.Timestamp { return types.Timestamp{Wall: w, Node: 1} }
	for w := int64(1); w <= 4; w++ {
		mustAppend(t, l, Entry{Kind: KindPrepare, TS: ts(w), Cmd: types.Command{
			ID:      types.CommandID{Origin: 1, Seq: uint64(w)},
			Payload: []byte(fmt.Sprintf("cmd-%d", w)),
		}})
		mustAppend(t, l, Entry{Kind: KindCommit, TS: ts(w)})
	}
	if err := l.WriteCheckpoint(Checkpoint{TS: ts(2), State: []byte("state@2")}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for w := int64(5); w <= 7; w++ {
		mustAppend(t, l, Entry{Kind: KindPrepare, TS: ts(w), Cmd: types.Command{
			ID:      types.CommandID{Origin: 1, Seq: uint64(w)},
			Payload: []byte(fmt.Sprintf("cmd-%d", w)),
		}})
	}
	mustAppend(t, l, Entry{Kind: KindCommit, TS: ts(5)})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	return data
}

func mustAppend(t *testing.T, l Log, e Entry) {
	t.Helper()
	if err := l.Append(e); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// parseRecords splits a well-formed log file into its framed records
// (without length prefixes), independently of FileLog.load.
func parseRecords(t *testing.T, data []byte) [][]byte {
	t.Helper()
	if len(data) < 4 || [4]byte(data[:4]) != fileMagic {
		t.Fatalf("fixture missing magic header")
	}
	var recs [][]byte
	off := 4
	for off < len(data) {
		if off+4 > len(data) {
			t.Fatalf("fixture has torn length prefix at %d", off)
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if off+4+n > len(data) {
			t.Fatalf("fixture has torn record at %d", off)
		}
		recs = append(recs, data[off+4:off+4+n])
		off += 4 + n
	}
	return recs
}

// expectedState decodes the records that fit completely below cut,
// returning the entries and checkpoint a correct recovery must surface.
func expectedState(t *testing.T, recs [][]byte, cut int) (entries []Entry, cp Checkpoint, hasCP bool) {
	t.Helper()
	off := 4 // magic header
	if cut < off {
		return nil, Checkpoint{}, false
	}
	for _, rec := range recs {
		if off+4+len(rec) > cut {
			break
		}
		off += 4 + len(rec)
		if rec[0] == kindCheckpointRecord {
			c, err := decodeCheckpoint(rec)
			if err != nil {
				t.Fatalf("decode checkpoint: %v", err)
			}
			cp, hasCP = c, true
			continue
		}
		e, err := decodeEntry(rec)
		if err != nil {
			t.Fatalf("decode entry: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, cp, hasCP
}

// TestFileLogCrashPointFuzz truncates a valid log at every byte offset
// and asserts Open always recovers the longest clean prefix, that the
// log accepts appends afterward, and that a further reopen sees a
// consistent state. This models a crash at any instant during a
// sequential append workload.
func TestFileLogCrashPointFuzz(t *testing.T) {
	dir := t.TempDir()
	data := buildCrashFixture(t, filepath.Join(dir, "fixture"))
	recs := parseRecords(t, data)

	path := filepath.Join(dir, "log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: write: %v", cut, err)
		}
		l, err := OpenFileLog(path, FileLogOptions{Mode: SyncAlways})
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		wantEntries, wantCP, wantHasCP := expectedState(t, recs, cut)
		gotEntries := l.Entries()
		if len(gotEntries) != len(wantEntries) || (len(wantEntries) > 0 && !reflect.DeepEqual(gotEntries, wantEntries)) {
			t.Fatalf("cut %d: recovered %d entries, want %d", cut, len(gotEntries), len(wantEntries))
		}
		gotCP, gotHasCP := l.LastCheckpoint()
		if gotHasCP != wantHasCP || (wantHasCP && !reflect.DeepEqual(gotCP, wantCP)) {
			t.Fatalf("cut %d: checkpoint mismatch (has=%v want=%v)", cut, gotHasCP, wantHasCP)
		}
		// The log must be usable after recovery.
		extra := Entry{Kind: KindPrepare, TS: types.Timestamp{Wall: 100, Node: 2}, Cmd: types.Command{
			ID:      types.CommandID{Origin: 2, Seq: 999},
			Payload: []byte("post-crash"),
		}}
		mustAppend(t, l, extra)
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		// A reopen must see the recovered prefix plus the new append.
		l2, err := OpenFileLog(path, FileLogOptions{})
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		got2 := l2.Entries()
		if len(got2) != len(wantEntries)+1 || !reflect.DeepEqual(got2[len(got2)-1], extra) {
			t.Fatalf("cut %d: reopen lost the post-recovery append (%d entries)", cut, len(got2))
		}
		l2.Close()
	}
}

// TestFileLogGroupCommit verifies SyncBatch semantics: appends buffer in
// user space and are invisible to a concurrent reader of the file (the
// crash image) until Sync, which covers them all with one fsync.
func TestFileLogGroupCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path, FileLogOptions{Mode: SyncBatch})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for w := int64(1); w <= 5; w++ {
		mustAppend(t, l, Entry{Kind: KindPrepare, TS: types.Timestamp{Wall: w, Node: 0}, Cmd: types.Command{
			ID: types.CommandID{Origin: 0, Seq: uint64(w)}, Payload: []byte("x"),
		}})
	}
	if st := l.Stats(); st.Syncs != 0 || st.Appends != 5 {
		t.Fatalf("before Sync: stats = %+v, want 5 appends and 0 syncs", st)
	}
	// The crash image (what a fresh open of the same path would see)
	// must be empty: nothing was flushed yet.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read image: %v", err)
	}
	if len(img) != len(fileMagic) {
		t.Fatalf("unsynced appends reached the file: %d bytes", len(img))
	}

	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	st := l.Stats()
	if st.Syncs != 1 || st.LastBatch != 5 || st.MaxBatch != 5 {
		t.Fatalf("after Sync: stats = %+v, want 1 sync covering 5", st)
	}
	// Sync on a clean log is a no-op.
	if err := l.Sync(); err != nil {
		t.Fatalf("idempotent sync: %v", err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("clean Sync issued an fsync: %+v", st)
	}
	// A smaller second batch updates LastBatch but not MaxBatch.
	for w := int64(6); w <= 7; w++ {
		mustAppend(t, l, Entry{Kind: KindCommit, TS: types.Timestamp{Wall: w, Node: 0}})
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := l.Stats(); st.Syncs != 2 || st.LastBatch != 2 || st.MaxBatch != 5 {
		t.Fatalf("after second Sync: stats = %+v", st)
	}
	if l.Mode() != SyncBatch {
		t.Fatalf("mode = %v, want batch", l.Mode())
	}
	l.Close()

	// Everything synced must be durable across reopen.
	l2, err := OpenFileLog(path, FileLogOptions{Mode: SyncBatch})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.Len(); got != 7 {
		t.Fatalf("reopen recovered %d entries, want 7", got)
	}
}

// TestFileLogAlwaysCountsSyncs checks per-append fsync accounting.
func TestFileLogAlwaysCountsSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path, FileLogOptions{Mode: SyncAlways})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for w := int64(1); w <= 3; w++ {
		mustAppend(t, l, Entry{Kind: KindCommit, TS: types.Timestamp{Wall: w, Node: 0}})
	}
	if st := l.Stats(); st.Appends != 3 || st.Syncs != 3 || st.MaxBatch != 1 {
		t.Fatalf("stats = %+v, want 3 appends / 3 syncs", st)
	}
	if l.Mode() != SyncAlways {
		t.Fatalf("mode = %v, want always", l.Mode())
	}
}

// TestParseSyncMode round-trips flag values.
func TestParseSyncMode(t *testing.T) {
	for _, want := range []SyncMode{SyncAlways, SyncBatch, SyncOff} {
		got, err := ParseSyncMode(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseSyncMode(%q) = %v, %v", want.String(), got, err)
		}
	}
	if m, err := ParseSyncMode("sometimes"); err == nil || m != SyncOff {
		t.Fatalf("ParseSyncMode(garbage) = %v, %v; want off and an error", m, err)
	}
}
