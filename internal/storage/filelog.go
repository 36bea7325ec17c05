package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"clockrsm/internal/msg"
	"clockrsm/internal/types"
)

// fileMagic guards against opening a non-log file.
var fileMagic = [4]byte{'C', 'R', 'S', 'M'}

// kindCheckpointRecord tags a checkpoint record in the log file; it
// shares the record stream with Entry records (kinds 1 and 2).
const kindCheckpointRecord = 3

// encodeCheckpoint frames a checkpoint record.
func encodeCheckpoint(cp Checkpoint) []byte {
	b := make([]byte, 0, 17+len(cp.State))
	b = append(b, kindCheckpointRecord)
	b = binary.LittleEndian.AppendUint64(b, uint64(cp.TS.Wall))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(cp.TS.Node)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cp.State)))
	return append(b, cp.State...)
}

// decodeCheckpoint parses a checkpoint record.
func decodeCheckpoint(b []byte) (Checkpoint, error) {
	var cp Checkpoint
	if len(b) < 17 || b[0] != kindCheckpointRecord {
		return cp, errors.New("short checkpoint record")
	}
	cp.TS.Wall = int64(binary.LittleEndian.Uint64(b[1:9]))
	cp.TS.Node = types.ReplicaID(int32(binary.LittleEndian.Uint32(b[9:13])))
	n := binary.LittleEndian.Uint32(b[13:17])
	if uint64(len(b[17:])) != uint64(n) {
		return cp, errors.New("bad checkpoint state length")
	}
	cp.State = append([]byte(nil), b[17:]...)
	return cp, nil
}

// ErrCorruptLog is returned when a log file fails structural validation.
// A truncated final record (torn write) is repaired silently, matching
// standard write-ahead-log recovery behaviour.
var ErrCorruptLog = errors.New("storage: corrupt log file")

// SyncMode selects when a FileLog forces appended records to stable
// storage.
type SyncMode int

const (
	// SyncOff never fsyncs; records reach the OS on every append but
	// survive only process crashes, not machine crashes. It is the zero
	// value, so FileLogOptions{} means no fsync.
	SyncOff SyncMode = iota
	// SyncAlways fsyncs after every append: maximum durability, one disk
	// flush per log record.
	SyncAlways
	// SyncBatch buffers appends and fsyncs only at Sync() — group
	// commit. The caller decides where the durability barrier sits (the
	// replica core places it at the end of each event-loop batch, before
	// any protocol message acknowledging the appends leaves the node).
	SyncBatch
)

// String names the mode as accepted by ParseSyncMode.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	default:
		return "off"
	}
}

// ParseSyncMode parses "always", "batch" or "off" (the kvserver -fsync
// flag values).
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "off":
		return SyncOff, nil
	default:
		return SyncOff, fmt.Errorf("unknown fsync mode %q (want always, batch or off)", s)
	}
}

// Syncer is implemented by logs that support group commit: Append
// buffers, Sync makes everything appended so far durable. The replica
// core detects this interface and calls Sync before releasing any
// protocol message that acknowledges the buffered appends.
type Syncer interface {
	Sync() error
}

// LogStats counts WAL activity, in the style of transport.WireCounters.
type LogStats struct {
	// Appends is the number of records appended.
	Appends uint64
	// Syncs is the number of fsyncs issued (per-append in SyncAlways,
	// per-barrier in SyncBatch, plus one per atomic rewrite).
	Syncs uint64
	// LastBatch and MaxBatch are the number of appends covered by the
	// most recent / largest single group-commit fsync.
	LastBatch uint64
	MaxBatch  uint64
}

// StatsReporter is implemented by logs that expose WAL counters.
type StatsReporter interface {
	Stats() LogStats
	// Mode reports the effective sync mode.
	Mode() SyncMode
}

// FileLog is a file-backed Log. Entries are kept in an in-memory MemLog
// for queries; Append writes a framed record to the file before updating
// memory, so a crash never loses an acknowledged entry (in SyncAlways
// mode, or after the covering Sync in SyncBatch mode) and recovery reads
// the file back.
type FileLog struct {
	mu   sync.Mutex
	mem  *MemLog
	f    *os.File
	w    *bufio.Writer
	mode SyncMode
	path string

	// dirty counts appends not yet covered by an fsync (SyncBatch mode).
	dirty uint64
	stats LogStats
}

var (
	_ Log           = (*FileLog)(nil)
	_ Syncer        = (*FileLog)(nil)
	_ StatsReporter = (*FileLog)(nil)
)

// FileLogOptions configure OpenFileLog.
type FileLogOptions struct {
	// Mode selects the fsync policy (default SyncOff).
	Mode SyncMode
}

// OpenFileLog opens (or creates) the log file at path and loads all
// complete records. A truncated tail record is discarded.
func OpenFileLog(path string, opts FileLogOptions) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open log: %w", err)
	}
	l := &FileLog{mem: NewMemLog(), f: f, mode: opts.Mode, path: path}
	validLen, err := l.load()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail, then position for appends.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	l.w = bufio.NewWriter(f)
	return l, nil
}

// load reads all complete records, returning the byte offset of the last
// complete record's end.
func (l *FileLog) load() (int64, error) {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(l.f)
	var off int64

	var magic [4]byte
	n, err := io.ReadFull(r, magic[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		// Empty file, or a header torn by a crash during creation:
		// rewrite it from scratch.
		if err := l.f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := l.f.Seek(0, io.SeekStart); err != nil {
			return 0, err
		}
		if _, err := l.f.Write(fileMagic[:]); err != nil {
			return 0, err
		}
		return int64(len(fileMagic)), nil
	}
	if err != nil {
		return 0, fmt.Errorf("%w: short header", ErrCorruptLog)
	}
	if magic != fileMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrCorruptLog)
	}
	off += int64(n)

	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return off, nil // clean EOF or torn length prefix
		}
		recLen := binary.LittleEndian.Uint32(lenBuf[:])
		rec := make([]byte, recLen)
		if _, err := io.ReadFull(r, rec); err != nil {
			return off, nil // torn record: stop before it
		}
		if len(rec) > 0 && rec[0] == kindCheckpointRecord {
			cp, err := decodeCheckpoint(rec)
			if err != nil {
				return off, fmt.Errorf("%w: checkpoint at %d: %v", ErrCorruptLog, off, err)
			}
			l.mem.writeCheckpoint(cp)
			off += 4 + int64(recLen)
			continue
		}
		e, err := decodeEntry(rec)
		if err != nil {
			return off, fmt.Errorf("%w: record at %d: %v", ErrCorruptLog, off, err)
		}
		l.mem.append(e)
		off += 4 + int64(recLen)
	}
}

// encodeEntry frames one entry: kind, timestamp, and (for PREPARE) the
// command.
func encodeEntry(e Entry) []byte {
	b := make([]byte, 0, 32+len(e.Cmd.Payload))
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.TS.Wall))
	b = binary.LittleEndian.AppendUint32(b, uint32(int32(e.TS.Node)))
	if e.Kind == KindPrepare {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(e.Cmd.ID.Origin)))
		b = binary.LittleEndian.AppendUint64(b, e.Cmd.ID.Seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Cmd.Payload)))
		b = append(b, e.Cmd.Payload...)
	}
	return b
}

// decodeEntry parses a framed entry.
func decodeEntry(b []byte) (Entry, error) {
	var e Entry
	if len(b) < 13 {
		return e, errors.New("short entry")
	}
	e.Kind = Kind(b[0])
	e.TS.Wall = int64(binary.LittleEndian.Uint64(b[1:9]))
	e.TS.Node = types.ReplicaID(int32(binary.LittleEndian.Uint32(b[9:13])))
	rest := b[13:]
	switch e.Kind {
	case KindCommit:
		if len(rest) != 0 {
			return e, errors.New("trailing bytes in COMMIT entry")
		}
	case KindPrepare:
		if len(rest) < 16 {
			return e, errors.New("short PREPARE entry")
		}
		e.Cmd.ID.Origin = types.ReplicaID(int32(binary.LittleEndian.Uint32(rest[0:4])))
		e.Cmd.ID.Seq = binary.LittleEndian.Uint64(rest[4:12])
		n := binary.LittleEndian.Uint32(rest[12:16])
		if uint64(len(rest[16:])) != uint64(n) {
			return e, errors.New("bad payload length")
		}
		e.Cmd.Payload = make([]byte, n)
		copy(e.Cmd.Payload, rest[16:])
	default:
		return e, fmt.Errorf("unknown entry kind %d", b[0])
	}
	return e, nil
}

// Append implements Log. In SyncAlways mode the record is flushed and
// fsynced before Append returns; in SyncBatch mode it is buffered until
// the next Sync (group commit); in SyncOff mode it is flushed to the OS
// but never fsynced.
func (l *FileLog) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := encodeEntry(e)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(rec)))
	if _, err := l.w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("append log: %w", err)
	}
	if _, err := l.w.Write(rec); err != nil {
		return fmt.Errorf("append log: %w", err)
	}
	l.stats.Appends++
	switch l.mode {
	case SyncBatch:
		// Leave the record in the bufio buffer; the covering fsync —
		// and even the write syscall — happen at Sync.
		l.dirty++
	case SyncAlways:
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("flush log: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("sync log: %w", err)
		}
		l.stats.Syncs++
		l.stats.LastBatch = 1
		if l.stats.MaxBatch < 1 {
			l.stats.MaxBatch = 1
		}
	default: // SyncOff
		if err := l.w.Flush(); err != nil {
			return fmt.Errorf("flush log: %w", err)
		}
	}
	return l.mem.Append(e)
}

// Sync implements Syncer: in SyncBatch mode it flushes and fsyncs all
// appends since the previous Sync (one disk flush covering the whole
// batch). In the other modes — where Append already provides the
// configured durability — it is a no-op. A clean log is also a no-op, so
// callers may invoke it unconditionally as a barrier.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked is Sync with l.mu held.
func (l *FileLog) syncLocked() error {
	if l.mode != SyncBatch || l.dirty == 0 {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("flush log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("sync log: %w", err)
	}
	l.stats.Syncs++
	l.stats.LastBatch = l.dirty
	if l.stats.MaxBatch < l.dirty {
		l.stats.MaxBatch = l.dirty
	}
	l.dirty = 0
	return nil
}

// Stats implements StatsReporter.
func (l *FileLog) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Mode implements StatsReporter.
func (l *FileLog) Mode() SyncMode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mode
}

// Len implements Log.
func (l *FileLog) Len() int { return l.mem.Len() }

// Entries implements Log.
func (l *FileLog) Entries() []Entry { return l.mem.Entries() }

// LastCommitTS implements Log.
func (l *FileLog) LastCommitTS() types.Timestamp { return l.mem.LastCommitTS() }

// CommandsAfter implements Log.
func (l *FileLog) CommandsAfter(ts types.Timestamp) []msg.TimestampedCommand {
	return l.mem.CommandsAfter(ts)
}

// CommandsBetween implements Log.
func (l *FileLog) CommandsBetween(from, to types.Timestamp) []msg.TimestampedCommand {
	return l.mem.CommandsBetween(from, to)
}

// HasPrepare implements Log.
func (l *FileLog) HasPrepare(ts types.Timestamp) bool { return l.mem.HasPrepare(ts) }

// RemovePrepares implements Log. The file is rewritten atomically via a
// temporary file so a crash mid-rewrite preserves the old log.
func (l *FileLog) RemovePrepares(after types.Timestamp) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.mem.RemovePrepares(after); err != nil {
		return err
	}
	return l.rewrite()
}

// WriteCheckpoint implements Checkpointer: the file is rewritten as
// magic | checkpoint | surviving entries.
func (l *FileLog) WriteCheckpoint(cp Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.mem.WriteCheckpoint(cp); err != nil {
		return err
	}
	return l.rewrite()
}

// LastCheckpoint implements Checkpointer.
func (l *FileLog) LastCheckpoint() (Checkpoint, bool) {
	return l.mem.LastCheckpoint()
}

// writeRecord frames one record onto w.
func writeRecord(w *bufio.Writer, rec []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(rec)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

// rewrite atomically replaces the file with the current in-memory state
// (checkpoint, if any, followed by all entries). Callers hold the lock.
func (l *FileLog) rewrite() error {
	tmp := l.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("rewrite log: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(fileMagic[:]); err != nil {
		f.Close()
		return err
	}
	if cp, ok := l.mem.LastCheckpoint(); ok {
		if err := writeRecord(w, encodeCheckpoint(cp)); err != nil {
			f.Close()
			return err
		}
	}
	for _, e := range l.mem.Entries() {
		if err := writeRecord(w, encodeEntry(e)); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("rewrite log: %w", err)
	}
	// Reopen for appends.
	if err := l.f.Close(); err != nil {
		return err
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return err
	}
	l.f = nf
	l.w = bufio.NewWriter(nf)
	// The rewritten file was fsynced and carries every append, including
	// any that were still buffered: the log is clean.
	l.stats.Syncs++
	if l.stats.LastBatch = l.dirty; l.dirty > 0 {
		if l.stats.MaxBatch < l.dirty {
			l.stats.MaxBatch = l.dirty
		}
	}
	l.dirty = 0
	return nil
}

// Close implements Log. Buffered appends are flushed to the OS but not
// fsynced; a process that needs the group-commit guarantee must Sync
// before Close.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
