package reshard

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"clockrsm/internal/kvstore"
	"clockrsm/internal/shard"
)

// keyInSlotSet finds a key whose slot is (or is not, per want) in the
// given set under a table with numSlots slots.
func keyFor(t *testing.T, numSlots int, in map[uint32]bool, want bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("smkey-%d", i)
		if in[shard.Hash(key)%uint32(numSlots)] == want {
			return key
		}
	}
	t.Fatal("no key found for slot set")
	return ""
}

// TestFenceRedirectsData: once a fence for a slot is applied, data
// commands for keys in that slot are never applied to the inner
// machine; they surface as typed redirects naming the target group.
// Unfenced slots keep applying normally.
func TestFenceRedirectsData(t *testing.T) {
	holder := NewHolder(Legacy(2), "")
	store := kvstore.New()
	sm := Wrap(0, store, holder)
	nslots := holder.Load().NumSlots()

	fencedSlots := map[uint32]bool{3: true, 7: true}
	out := sm.Apply(EncodeFence(Fence{Gen: 1, From: 0, To: 2, Slots: []uint32{3, 7}}))
	if string(out) != "FENCED" {
		t.Fatalf("fence apply returned %q", out)
	}
	if sm.Fenced() != 2 {
		t.Fatalf("Fenced() = %d, want 2", sm.Fenced())
	}

	hot := keyFor(t, nslots, fencedSlots, true)
	cold := keyFor(t, nslots, fencedSlots, false)

	if out := sm.Apply(kvstore.Put(hot, []byte("v"))); out != nil {
		t.Fatalf("fenced put produced output %q", out)
	}
	if g, ok := sm.TakeRedirect(); !ok || g != 2 {
		t.Fatalf("TakeRedirect = %v, %v; want group 2", g, ok)
	}
	if _, ok := sm.TakeRedirect(); ok {
		t.Fatal("TakeRedirect did not clear after being taken")
	}
	if _, ok := store.Lookup(hot); ok {
		t.Fatal("fenced write leaked into the inner store")
	}

	sm.Apply(kvstore.Put(cold, []byte("v")))
	if _, ok := sm.TakeRedirect(); ok {
		t.Fatal("unfenced write produced a redirect")
	}
	if _, ok := store.Lookup(cold); !ok {
		t.Fatal("unfenced write was not applied")
	}

	// The fence also advances the shared table to Migrating.
	if got := holder.Load().Slots[3]; got.Phase != Migrating || got.To != 2 || got.Gen != 1 {
		t.Fatalf("table claim after fence = %+v", got)
	}
}

// TestInstallDupSuppression: a re-proposed final install (coordinator
// retry or log replay) is acknowledged as a duplicate and must not
// re-seed pairs — a later write to a migrated key can never be rolled
// back by a stale chunk.
func TestInstallDupSuppression(t *testing.T) {
	holder := NewHolder(Legacy(2), "")
	store := kvstore.New()
	sm := Wrap(1, store, holder)

	in := Install{Gen: 1, From: 0, To: 1, Final: true, Slots: []uint32{4},
		Pairs: []Pair{{Key: []byte("mk"), Value: []byte("old")}}}
	if out := sm.Apply(EncodeInstall(in)); string(out) != "INSTALLED" {
		t.Fatalf("first install returned %q", out)
	}
	if v, ok := store.Lookup("mk"); !ok || !bytes.Equal(v, []byte("old")) {
		t.Fatalf("seeded pair = %q, %v", v, ok)
	}
	if got := holder.Load().Slots[4]; got.Phase != Owned || got.Owner != 1 || got.Gen != 1 {
		t.Fatalf("table claim after final install = %+v", got)
	}

	// The key moves on; the duplicate must not regress it.
	sm.Apply(kvstore.Put("mk", []byte("new")))
	if out := sm.Apply(EncodeInstall(in)); string(out) != "DUP" {
		t.Fatalf("duplicate install returned %q", out)
	}
	if v, _ := store.Lookup("mk"); !bytes.Equal(v, []byte("new")) {
		t.Fatalf("duplicate install regressed the key to %q", v)
	}

	// An install addressed to another group is a deterministic no-op.
	other := Install{Gen: 1, From: 0, To: 3, Final: true, Slots: []uint32{9}}
	if out := sm.Apply(EncodeInstall(other)); out != nil {
		t.Fatalf("misaddressed install returned %q", out)
	}
}

// TestSnapshotCarriesRouteState: a snapshot of the wrapped machine
// carries fences, seed records, the routing table, and the inner data;
// restoring into a fresh wrapper reproduces all four, and the carried
// table merges monotonically into the new host's holder.
func TestSnapshotCarriesRouteState(t *testing.T) {
	holder := NewHolder(Legacy(2), "")
	store := kvstore.New()
	sm := Wrap(0, store, holder)

	sm.Apply(kvstore.Put("keep", []byte("data")))
	sm.Apply(EncodeFence(Fence{Gen: 2, From: 0, To: 2, Slots: []uint32{1, 5}}))
	sm.Apply(EncodeInstall(Install{Gen: 1, From: 3, To: 0, Final: true, Slots: []uint32{8},
		Pairs: []Pair{{Key: []byte("seeded"), Value: []byte("in")}}}))

	blob := sm.Snapshot()
	// One line of JSON route state, then the inner snapshot verbatim.
	if !bytes.HasSuffix(blob, append([]byte("\n"), store.Snapshot()...)) {
		t.Fatal("snapshot does not end with the inner snapshot after the header line")
	}

	holder2 := NewHolder(Legacy(2), "")
	store2 := kvstore.New()
	sm2 := Wrap(0, store2, holder2)
	if err := sm2.Restore(blob); err != nil {
		t.Fatal(err)
	}

	if sm2.Fenced() != 2 {
		t.Fatalf("restored Fenced() = %d, want 2", sm2.Fenced())
	}
	sm2.Apply(kvstore.Put(keyFor(t, holder2.Load().NumSlots(), map[uint32]bool{1: true, 5: true}, true), []byte("x")))
	if g, ok := sm2.TakeRedirect(); !ok || g != 2 {
		t.Fatalf("restored wrapper did not fence: %v, %v", g, ok)
	}
	if out := sm2.Apply(EncodeInstall(Install{Gen: 1, From: 3, To: 0, Final: true, Slots: []uint32{8}})); string(out) != "DUP" {
		t.Fatalf("restored wrapper lost seed records: %q", out)
	}
	for _, key := range []string{"keep", "seeded"} {
		if _, ok := store2.Lookup(key); !ok {
			t.Fatalf("restored store is missing %q", key)
		}
	}
	if got := holder2.Load().Slots[5]; got.Phase != Migrating || got.Gen != 2 {
		t.Fatalf("restored holder claim = %+v, want gen-2 migration", got)
	}

	// A header that is not strict JSON is refused before the inner
	// machine is touched.
	for _, bad := range [][]byte{blob[:10], append([]byte(`{"Table":null}`+"\n"), store.Snapshot()...)} {
		if err := sm2.Restore(bad); !errors.Is(err, ErrBadTable) {
			t.Fatalf("Restore(malformed) = %v, want ErrBadTable", err)
		}
	}

	// A stale snapshot cannot roll a holder's routing back.
	holder2.Merge(map[uint32]Claim{5: {Gen: 3, Phase: Owned, Owner: 2}})
	if err := sm2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := holder2.Load().Slots[5]; got.Gen != 3 || got.Phase != Owned {
		t.Fatalf("stale snapshot rolled routing back to %+v", got)
	}
}
