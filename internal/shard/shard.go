// Package shard holds the key hash every routing layer derives a key's
// replication group from, and the per-group log naming. A node that
// hosts G independent Clock-RSM groups (node.Host) partitions the key
// space through the reshard slot table, which maps keys to slots with
// Hash: every key lives in exactly one group, so per-key operations
// stay totally ordered — and therefore linearizable — while distinct
// groups commit in parallel.
package shard

import (
	"strconv"

	"clockrsm/internal/types"
)

// FNV-1a 32-bit constants; the hash is inlined so routing a key
// performs no allocation and no interface dispatch.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// Hash returns the FNV-1a hash of key — the single hash key placement
// derives from. The reshard slot table maps keys to slots with it,
// which is what makes the genesis table placement-identical to
// Hash(key) mod G.
func Hash(key string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return h
}

// LogPath names group g's stable log file under a base path. Group 0
// of a single-group deployment keeps the base path itself, so existing
// single-group logs replay unchanged after an upgrade.
func LogPath(base string, g types.GroupID, groups int) string {
	if groups <= 1 {
		return base
	}
	return base + ".g" + strconv.Itoa(int(g))
}
