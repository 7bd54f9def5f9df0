package wafe

import (
	"fmt"
	"testing"

	"wafe/internal/xt"
)

// BenchmarkXrm_CachedQuery is the steady-state resource lookup: a large
// database, one widget path queried repeatedly. The search list is
// cached after the first query, so every iteration must run with zero
// heap allocations — cmd/wafebench gates on 0 B/op here.
func BenchmarkXrm_CachedQuery(b *testing.B) {
	db := xt.NewXrm()
	for i := 0; i < 512; i++ {
		_ = db.Enter(fmt.Sprintf("*w%d.res%d", i, i), "v")
	}
	_ = db.Enter("wafe*form.label1.foreground", "red")
	names := []string{"wafe", "form", "label1"}
	classes := []string{"Wafe", "Form", "Label"}
	// Warm the search-list cache.
	if v, ok := db.Query(names, classes, "foreground", "Foreground"); !ok || v != "red" {
		b.Fatal("warm query failed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := db.Query(names, classes, "foreground", "Foreground")
		if !ok || v != "red" {
			b.Fatal("query failed")
		}
	}
}

// BenchmarkXrm_EnterScale measures database load cost: entering n
// distinct specifications into a fresh database. The quark tree makes
// each Enter O(depth); the flat-list engine rescanned all prior
// entries, making bulk loads quadratic.
func BenchmarkXrm_EnterScale(b *testing.B) {
	for _, n := range []int{64, 512} {
		specs := make([]string, n)
		for i := range specs {
			specs[i] = fmt.Sprintf("*w%d.res%d", i, i)
		}
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := xt.NewXrm()
				for _, s := range specs {
					_ = db.Enter(s, "v")
				}
			}
		})
	}
}
