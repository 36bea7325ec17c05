package storage

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"clockrsm/internal/types"
)

func ts(wall int64, node int) types.Timestamp {
	return types.Timestamp{Wall: wall, Node: types.ReplicaID(node)}
}

func cmd(origin int, seq uint64, payload string) types.Command {
	return types.Command{
		ID:      types.CommandID{Origin: types.ReplicaID(origin), Seq: seq},
		Payload: []byte(payload),
	}
}

func prepare(wall int64, node int, payload string) Entry {
	return Entry{Kind: KindPrepare, TS: ts(wall, node), Cmd: cmd(node, uint64(wall), payload)}
}

func commit(wall int64, node int) Entry {
	return Entry{Kind: KindCommit, TS: ts(wall, node)}
}

// logFactory lets every test run against both implementations.
type logFactory struct {
	name string
	make func(t *testing.T) Log
}

func factories() []logFactory {
	return []logFactory{
		{"mem", func(t *testing.T) Log { return NewMemLog() }},
		{"file", func(t *testing.T) Log {
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "log.bin"), FileLogOptions{Mode: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			return l
		}},
	}
}

func TestAppendAndQuery(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t)
			defer l.Close()

			entries := []Entry{
				prepare(10, 0, "a"),
				prepare(20, 1, "b"),
				commit(10, 0),
				prepare(15, 2, "c"),
				commit(15, 2),
			}
			for _, e := range entries {
				if err := l.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if l.Len() != 5 {
				t.Errorf("Len = %d, want 5", l.Len())
			}
			if got := l.LastCommitTS(); got != ts(15, 2) {
				t.Errorf("LastCommitTS = %v, want 15@r2", got)
			}
			if !l.HasPrepare(ts(20, 1)) || l.HasPrepare(ts(99, 0)) {
				t.Error("HasPrepare wrong")
			}
			after := l.CommandsAfter(ts(10, 0))
			if len(after) != 2 || after[0].TS != ts(15, 2) || after[1].TS != ts(20, 1) {
				t.Errorf("CommandsAfter = %+v", after)
			}
			between := l.CommandsBetween(ts(10, 0), ts(15, 2))
			if len(between) != 1 || between[0].TS != ts(15, 2) {
				t.Errorf("CommandsBetween = %+v", between)
			}
		})
	}
}

func TestRemovePreparesKeepsCommitted(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t)
			defer l.Close()
			must := func(e Entry) {
				if err := l.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			must(prepare(10, 0, "committed-old"))
			must(commit(10, 0))
			must(prepare(20, 1, "committed-new"))
			must(commit(20, 1))
			must(prepare(30, 2, "uncommitted-new")) // must be removed
			if err := l.RemovePrepares(ts(15, 0)); err != nil {
				t.Fatal(err)
			}
			if l.HasPrepare(ts(30, 2)) {
				t.Error("uncommitted new prepare survived RemovePrepares")
			}
			if !l.HasPrepare(ts(20, 1)) {
				t.Error("committed new prepare was removed")
			}
			if !l.HasPrepare(ts(10, 0)) {
				t.Error("old prepare was removed")
			}
		})
	}
}

func TestCommittedCommandsReplay(t *testing.T) {
	l := NewMemLog()
	// Out-of-timestamp-order PREPAREs with in-order COMMITs, plus one
	// dangling PREPARE.
	l.Append(prepare(20, 1, "b"))
	l.Append(prepare(10, 0, "a"))
	l.Append(commit(10, 0))
	l.Append(commit(20, 1))
	l.Append(prepare(30, 2, "dangling"))

	committed, dangling := CommittedCommands(l)
	if len(committed) != 2 || committed[0].TS != ts(10, 0) || committed[1].TS != ts(20, 1) {
		t.Errorf("committed = %+v", committed)
	}
	if len(dangling) != 1 || dangling[0].TS != ts(30, 2) {
		t.Errorf("dangling = %+v", dangling)
	}
}

func TestFileLogPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		prepare(10, 0, "a"),
		commit(10, 0),
		prepare(20, 1, "payload with spaces"),
	}
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := l2.Entries()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reloaded entries mismatch:\n got  %+v\n want %+v", got, want)
	}
	if l2.LastCommitTS() != ts(10, 0) {
		t.Errorf("LastCommitTS after reload = %v", l2.LastCommitTS())
	}
}

func TestFileLogTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(prepare(10, 0, "a"))
	l.Append(prepare(20, 1, "b"))
	l.Close()

	// Simulate a torn write: chop a few bytes off the end.
	b, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, b[:len(b)-3]); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatalf("torn tail should be repaired, got %v", err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("entries after torn tail = %d, want 1", l2.Len())
	}
	// The log must accept appends after repair.
	if err := l2.Append(commit(10, 0)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Len() != 2 {
		t.Errorf("entries after repair+append = %d, want 2", l3.Len())
	}
}

func TestFileLogBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	if err := writeFile(path, []byte("NOTALOGFILE")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileLog(path, FileLogOptions{}); err == nil {
		t.Error("OpenFileLog accepted bad magic")
	}
}

func TestFileLogRemovePreparesRewritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(prepare(10, 0, "keep"))
	l.Append(commit(10, 0))
	l.Append(prepare(30, 2, "drop"))
	if err := l.RemovePrepares(ts(10, 0)); err != nil {
		t.Fatal(err)
	}
	// Appends after rewrite must work and persist.
	l.Append(prepare(40, 1, "new"))
	l.Close()

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.HasPrepare(ts(30, 2)) {
		t.Error("dropped prepare present after reload")
	}
	if !l2.HasPrepare(ts(10, 0)) || !l2.HasPrepare(ts(40, 1)) {
		t.Error("kept/new prepares missing after reload")
	}
}

// Property: MemLog and FileLog agree on every query after the same
// random operation sequence, and replay equals the directly-computed
// committed set.
func TestMemFileEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := NewMemLog()
		file, err := OpenFileLog(filepath.Join(t.TempDir(), "log.bin"), FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()

		var prepared []types.Timestamp
		committed := make(map[types.Timestamp]bool)
		for i := 0; i < 60; i++ {
			var e Entry
			if len(prepared) > 0 && rng.Intn(3) == 0 {
				// Commit a random earlier prepare that is not yet committed.
				tsv := prepared[rng.Intn(len(prepared))]
				if committed[tsv] {
					continue
				}
				committed[tsv] = true
				e = Entry{Kind: KindCommit, TS: tsv}
			} else {
				tsv := ts(int64(rng.Intn(1000)), rng.Intn(5))
				if mem.HasPrepare(tsv) {
					continue
				}
				prepared = append(prepared, tsv)
				e = prepare(tsv.Wall, int(tsv.Node), "x")
				e.TS = tsv
			}
			mem.Append(e)
			file.Append(e)
		}
		probe := ts(500, 2)
		if !reflect.DeepEqual(mem.CommandsAfter(probe), file.CommandsAfter(probe)) {
			return false
		}
		if mem.LastCommitTS() != file.LastCommitTS() {
			return false
		}
		mc, md := CommittedCommands(mem)
		fc, fd := CommittedCommands(file)
		return reflect.DeepEqual(mc, fc) && reflect.DeepEqual(md, fd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindPrepare.String() != "PREPARE" || KindCommit.String() != "COMMIT" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind name wrong")
	}
}
