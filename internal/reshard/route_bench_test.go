package reshard

import (
	"fmt"
	"testing"

	"clockrsm/internal/shard"
	"clockrsm/internal/types"
)

// benchKeys is a fixed working set shared by the routing benchmarks so
// the fixed-router and table paths hash identical traffic.
func benchKeys() []string {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
	}
	return keys
}

// BenchmarkRouterFixed is the baseline: the fixed hash-mod-G placement
// the dynamic table replaced as the source of placement truth.
func BenchmarkRouterFixed(b *testing.B) {
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	var sink types.GroupID
	for i := 0; i < b.N; i++ {
		sink = types.GroupID(shard.Hash(keys[i&1023]) % 4)
	}
	_ = sink
}

// BenchmarkRouterTable measures a lookup through the dynamic routing
// table at genesis (same placement as the fixed router). The budget in
// ISSUE 9 is <5% over BenchmarkRouterFixed.
func BenchmarkRouterTable(b *testing.B) {
	tbl := Legacy(4)
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	var sink types.GroupID
	for i := 0; i < b.N; i++ {
		sink = tbl.Group(keys[i&1023])
	}
	_ = sink
}

// BenchmarkRouterTableSplit is the same lookup against a table that has
// absorbed a split — the slot array is no longer the uniform s mod g
// pattern, so this catches any cost that only shows up post-reshard.
func BenchmarkRouterTableSplit(b *testing.B) {
	tbl, _, err := applySplit(Legacy(4), 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	var sink types.GroupID
	for i := 0; i < b.N; i++ {
		sink = tbl.Group(keys[i&1023])
	}
	_ = sink
}
