package metric

import (
	"fmt"
)

// MetricDef describes one metric within a schema: its name and value type.
// The component ID is a per-set property assigned when a set is instantiated
// from the schema.
type MetricDef struct {
	Name string
	Type Type
}

// Schema is the blueprint for a metric set: an ordered list of metric
// definitions plus a schema name. A sampling plugin defines one schema and
// every node instantiates a set from it, so all instances share metric
// layout. Schemas are immutable once a Set has been created from them; the
// one an aggregator's lookup resolves to (ParseMeta) is shared by every
// mirror of that layout in the process.
type Schema struct {
	name     string
	defs     []MetricDef
	offsets  []uint32 // offset of each value in the data chunk
	dataSize int      // total data chunk size including header
	index    map[string]int
	frozen   bool

	// Intern bookkeeping (intern.go): the layout's hash under the table's
	// seed, and the live mirrors holding the schema, guarded by the table.
	hash uint64
	refs int
}

// NewSchema returns an empty schema with the given name.
func NewSchema(name string) *Schema {
	return &Schema{
		name:     name,
		dataSize: dataHeaderSize,
		index:    make(map[string]int),
	}
}

// Name returns the schema name.
func (s *Schema) Name() string { return s.name }

// AddMetric appends a metric definition and returns its index. It fails if
// the schema has been frozen by set creation, the name is empty or
// duplicate, or the type is invalid.
func (s *Schema) AddMetric(name string, t Type) (int, error) {
	if s.frozen {
		return 0, fmt.Errorf("metric: schema %q is frozen; cannot add %q", s.name, name)
	}
	if name == "" {
		return 0, fmt.Errorf("metric: empty metric name in schema %q", s.name)
	}
	if !t.Valid() {
		return 0, fmt.Errorf("metric: invalid type for metric %q in schema %q", name, s.name)
	}
	if _, dup := s.index[name]; dup {
		return 0, fmt.Errorf("metric: duplicate metric %q in schema %q", name, s.name)
	}
	idx := len(s.defs)
	s.defs = append(s.defs, MetricDef{Name: name, Type: t})
	s.offsets = append(s.offsets, uint32(s.dataSize))
	s.dataSize += t.Size()
	s.index[name] = idx
	return idx, nil
}

// MustAddMetric is AddMetric but panics on error; for static plugin schemas
// whose validity is a programming invariant.
func (s *Schema) MustAddMetric(name string, t Type) int {
	idx, err := s.AddMetric(name, t)
	if err != nil {
		panic(err)
	}
	return idx
}

// Card returns the number of metrics in the schema (its cardinality).
func (s *Schema) Card() int { return len(s.defs) }

// Def returns the definition of metric i.
func (s *Schema) Def(i int) MetricDef { return s.defs[i] }

// Lookup returns the index of the named metric and whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// DataSize returns the size in bytes of the data chunk for sets using this
// schema (header plus all values).
func (s *Schema) DataSize() int { return s.dataSize }

// MetaSize returns the size in bytes of the serialized metadata chunk for a
// set with the given instance name.
func (s *Schema) MetaSize(instance string) int {
	n := metaHeaderFixed + len(instance) + len(s.name)
	for _, d := range s.defs {
		n += metaEntryFixed + len(d.Name)
	}
	return n
}

// Equal reports whether o describes the same layout: schema name and every
// metric's name and type, in order (offsets and data size follow from those).
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s.name != o.name || len(s.defs) != len(o.defs) {
		return false
	}
	for i, d := range s.defs {
		if d != o.defs[i] {
			return false
		}
	}
	return true
}

// freeze marks the schema immutable. A frozen schema is not written again:
// an interned one is already shared across goroutines.
func (s *Schema) freeze() {
	if !s.frozen {
		s.frozen = true
	}
}
