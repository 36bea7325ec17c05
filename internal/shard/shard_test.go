package shard

import (
	"fmt"
	"testing"
)

// TestHash pins Hash to FNV-1a (persisted routing tables and on-disk
// group layouts depend on the exact function) and checks it spreads
// keys evenly enough to place them mod G.
func TestHash(t *testing.T) {
	// Published FNV-1a 32-bit test vectors.
	for key, want := range map[string]uint32{"": 0x811c9dc5, "a": 0xe40c292c, "foobar": 0xbf9cf968} {
		if got := Hash(key); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", key, got, want)
		}
	}
	const groups, keys = 4, 4096
	counts := make([]int, groups)
	for i := 0; i < keys; i++ {
		counts[Hash(fmt.Sprintf("user:%d:profile", i))%groups]++
	}
	// FNV over distinct keys should land well within 2x of uniform.
	for g, c := range counts {
		if c < keys/groups/2 || c > keys/groups*2 {
			t.Fatalf("group %d holds %d of %d keys: badly skewed %v", g, c, keys, counts)
		}
	}
}

func TestLogPath(t *testing.T) {
	if got := LogPath("/var/lib/rsm.log", 0, 1); got != "/var/lib/rsm.log" {
		t.Fatalf("single-group path = %q", got)
	}
	if got := LogPath("/var/lib/rsm.log", 2, 4); got != "/var/lib/rsm.log.g2" {
		t.Fatalf("multi-group path = %q", got)
	}
}
