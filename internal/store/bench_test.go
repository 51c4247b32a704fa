package store

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"goldms/internal/metric"
)

// benchRows builds n flattened samples of a small meminfo-like schema,
// sharing one Names slice the way the storage pipeline does.
func benchRows(n int) []metric.Row {
	rows := make([]metric.Row, n)
	for i := range rows {
		rows[i] = metric.Row{
			Time:     time.Unix(int64(1000+i), 250000000),
			Instance: "n1/meminfo",
			Schema:   "meminfo",
			CompID:   uint64(i),
			Names:    colNames,
			Values: []metric.Value{
				metric.U64Value(uint64(i)), metric.U64Value(uint64(2 * i)),
				metric.F64Value(float64(i) / 3),
			},
		}
	}
	return rows
}

// BenchmarkStorePipeline compares batches of one row against one batch of
// 256 rows for the file-backed plugins. One benchmark op
// processes batchRows rows, so ns/row = ns/op ÷ 256 and allocs/row =
// allocs/op ÷ 256 (recorded in EXPERIMENTS.md).
func BenchmarkStorePipeline(b *testing.B) {
	const batchRows = 256
	rows := benchRows(batchRows)
	for _, plugin := range []string{"store_csv", "store_flatfile"} {
		for _, mode := range []string{"row", "batch"} {
			b.Run(fmt.Sprintf("%s/%s", plugin, mode), func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "out")
				s, err := New(plugin, Config{
					Path: path, Schema: "meminfo", Names: colNames, Types: colTypes,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if mode == "row" {
						for i := range rows {
							if err := s.StoreBatch(rows[i : i+1]); err != nil {
								b.Fatal(err)
							}
						}
					} else {
						if err := Batch(s, rows); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
