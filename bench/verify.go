package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
)

// csvCheck is the outcome of reading one store_csv container back.
type csvCheck struct {
	matched int     // rows inside the window whose every value is the one written
	wrong   int     // rows inside the window that are torn, altered, duplicated or unparseable
	first   error   // the first wrong row, for the failure message
	missing string  // where the unmatched rows are, for the log
	lostAt  []int64 // leaf rows: the same as offsets into the window, every seq with a row missing
}

func (c *csvCheck) bad(format string, args ...any) {
	c.wrong++
	if c.first == nil {
		c.first = fmt.Errorf(format, args...)
	}
}

// csvRows calls row for every data row of a store_csv file whose timestamp
// names a sample seq inside sw, with that seq, its component id, and the raw
// value fields. It reads from offset, where the file ended shortly before
// the window began (the store appends, so no row of the window lies before
// it), and skips rows outside the window before their values are split: a
// run that waited two minutes for a calm host has a gigabyte of them.
func csvRows(path string, offset int64, sw *seqWindow, row func(seq int64, comp uint64, vals [][]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	if offset > 0 {
		r.ReadSlice('\n') // the rest of the row the offset fell into
	}
	var fields [][]byte
	read, dropped := offset, offset
	var seq int64
	for n := 1; ; n++ {
		line, err := r.ReadSlice('\n')
		// Read-behind drop: the file is read once, so its cache is let go
		// as the check moves on (see cache.go).
		if read += int64(len(line)); read-dropped > 32<<20 {
			dropFileCache(f, read)
			dropped = read
		}
		if err == io.EOF && len(line) == 0 {
			return nil
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("%s:%d: %w", path, n, err)
		}
		line = bytes.TrimRight(line, "\n")
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fields = fields[:0]
		for len(fields) < 3 || sw.has(seq) {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				fields = append(fields, line)
				break
			}
			fields = append(fields, line[:i])
			line = line[i+1:]
			if len(fields) == 2 {
				sec, e1 := parseUint(fields[0])
				usec, e2 := parseUint(fields[1])
				if e1 != nil || e2 != nil {
					return fmt.Errorf("%s:%d: bad time", path, n)
				}
				seq = (int64(sec)*1e9 + int64(usec)*1e3) / int64(interval)
			}
		}
		if len(fields) < 3 {
			return fmt.Errorf("%s:%d: %d fields", path, n, len(fields))
		}
		if !sw.has(seq) {
			continue
		}
		comp, err := parseUint(fields[2])
		if len(fields) < 4 || err != nil {
			return fmt.Errorf("%s:%d: %d fields or a bad component id", path, n, len(fields))
		}
		if err := row(seq, comp, fields[3:]); err != nil {
			return fmt.Errorf("%s:%d: %w", path, n, err)
		}
	}
}

func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, strconv.ErrSyntax
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, strconv.ErrSyntax
		}
		v = v*10 + uint64(c-'0')
	}
	return v, nil
}

// seqWindow is the half-open range of sample seqs the measured window
// covers, and which of them the generator actually produced on time.
type seqWindow struct {
	lo, hi int64
	made   []bool // made[seq-lo]
}

func (sw *seqWindow) has(seq int64) bool {
	return seq >= sw.lo && seq < sw.hi && sw.made[seq-sw.lo]
}

func (sw *seqWindow) count() int {
	n := 0
	for _, ok := range sw.made {
		if ok {
			n++
		}
	}
	return n
}

// checkLeafCSV recomputes every value of every in-window row of the
// synthetic (or probe) schema's CSV from the seed. A row is matched only if
// all its metrics come from the one seq its timestamp names — a torn row
// cannot pass — and each (set, seq) may appear once.
func checkLeafCSV(path string, offset int64, g *generator, probe bool, sw *seqWindow) (csvCheck, error) {
	var c csvCheck
	w := &g.w
	n := sw.hi - sw.lo
	seen := make([]bool, int64(len(g.sets))*n)
	err := csvRows(path, offset, sw, func(seq int64, comp uint64, vals [][]byte) error {
		if comp == 0 || comp > uint64(len(g.sets)) || g.sets[comp-1].probe != probe {
			c.bad("row for component %d does not belong in %s", comp, path)
			return nil
		}
		s := g.sets[comp-1]
		slot := int64(comp-1)*n + seq - sw.lo
		if seen[slot] {
			c.bad("%s seq %d stored twice", s.name, seq)
			return nil
		}
		seen[slot] = true
		if probe {
			got, err := parseUint(vals[0])
			if len(vals) != 2 || err != nil || int64(got) != seq {
				c.bad("%s seq %d: probe row carries seq %s", s.name, seq, vals[0])
				return nil
			}
			c.matched++
			return nil
		}
		if len(vals) != w.card {
			c.bad("%s seq %d: %d values, want %d", s.name, seq, len(vals), w.card)
			return nil
		}
		for m, f := range vals {
			got, err := parseUint(f)
			if want := w.expected(g.seed, s.id, m, seq); err != nil || got != want {
				c.bad("%s seq %d metric %d: stored %s, written %d (torn or altered row)", s.name, seq, m, f, want)
				return nil
			}
		}
		c.matched++
		return nil
	})
	// Say which samples went missing: a whole seq is a skipped or torn pass,
	// a scatter is per-set trouble.
	for q := int64(0); q < n; q++ {
		lost := 0
		for i := range g.sets {
			if g.sets[i].probe == probe && sw.made[q] && !seen[int64(i)*n+q] {
				lost++
			}
		}
		if lost > 0 {
			c.lostAt = append(c.lostAt, q)
			if len(c.missing) < 200 {
				c.missing += fmt.Sprintf(" seq+%d:%d", q, lost)
			}
		}
	}
	return c, err
}

// checkReducedCSV compares the reduced synth set's rows at the top against
// a reference fold over what the generator wrote: members fold in sorted
// name order (generator order) and avg accumulates in float64, exactly as
// tier.Reducer does, so the comparison is bit-exact. A reduced row folds
// every member as mirrored, and a pass is not atomic across sets: where the
// mid tier skipped a member's sample, or a delayed pass ran into the next
// sample, the fold mixes two samples under the newer one's timestamp (and may
// be published twice) — and then the top cannot hold every member's row for
// the older seq. unsettled marks those window offsets: a reduced row that
// differs at one, or straight after or before one, is part of that loss
// (unmatched, not wrong); anywhere else it is a wrong fold.
func checkReducedCSV(path string, offset int64, op string, g *generator, sw *seqWindow, unsettled []bool) (csvCheck, error) {
	var c csvCheck
	w := &g.w
	members := 0
	for _, s := range g.sets {
		if !s.probe {
			members++
		}
	}
	seen := make([]bool, sw.hi-sw.lo)
	bad := func(seq int64, format string, args ...any) {
		for q := seq - sw.lo - 1; q <= seq-sw.lo+1; q++ {
			if q < 0 || q >= int64(len(unsettled)) || unsettled[q] { // what lies outside the window is not known
				return
			}
		}
		c.bad(format, args...)
	}
	err := csvRows(path, offset, sw, func(seq int64, comp uint64, vals [][]byte) error {
		if seen[seq-sw.lo] {
			bad(seq, "%s seq %d stored twice", op, seq)
			return nil
		}
		seen[seq-sw.lo] = true
		if len(vals) != w.card+1 {
			bad(seq, "%s seq %d: %d values, want %d", op, seq, len(vals), w.card+1)
			return nil
		}
		if n, err := parseUint(vals[w.card]); err != nil || int(n) != members {
			bad(seq, "%s seq %d: reduce_count %s, want %d", op, seq, vals[w.card], members)
			return nil
		}
		for m := 0; m < w.card; m++ {
			var sum float64
			var peak uint64
			for _, s := range g.sets {
				if s.probe {
					continue
				}
				v := w.expected(g.seed, s.id, m, seq)
				sum += float64(v)
				peak = max(peak, v)
			}
			ok := false
			switch op {
			case "avg":
				got, err := strconv.ParseFloat(string(vals[m]), 64)
				ok = err == nil && got == sum/float64(members)
			case "max":
				got, err := parseUint(vals[m])
				ok = err == nil && got == peak
			}
			if !ok {
				bad(seq, "%s seq %d metric %d: stored %s differs from the reference fold", op, seq, m, vals[m])
				return nil
			}
		}
		c.matched++
		return nil
	})
	return c, err
}
