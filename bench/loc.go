package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// sizeRows counts non-test Go lines per layer package and in the whole
// module (the bench itself left out), so a "same numbers, less code" change
// lands in the same ledger as a faster one.
func sizeRows(root string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, pkg := range []string{"metric", "transport", "ldmsd", "tier", "store", "query", "obs", "sched"} {
		out["size.loc."+pkg] = 0
	}
	var total float64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := float64(bytes.Count(b, []byte("\n")))
		total += n
		if dir := filepath.Dir(rel); filepath.Dir(dir) == "internal" {
			if key := "size.loc." + filepath.Base(dir); hasKey(out, key) {
				out[key] += n
			}
		}
		return nil
	})
	out["size.loc.total"] = total
	return out, err
}

func hasKey(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}
