package analysis

// Field paths
//
// The field-coverage analyzers (cachekey, guardedby) relate declarations
// in one package to uses in another — and, under parallel loading, across
// separate type-checker universes where go/types object identity does not
// hold. A FieldRef is the universe-independent name of a struct field:
// package import path, named type, field. Analyzers key their coverage
// maps by its textual form and print it in diagnostics:
//
//	<import/path>.<Type>          — the whole struct
//	<import/path>.<Type>.<Field>  — one field

// FieldRef names a struct field — or, with Field empty, a whole named
// struct type — independently of any go/types universe.
type FieldRef struct {
	Pkg   string // import path, e.g. "hclocksync/internal/mpi"
	Type  string // named struct type, e.g. "SessionState"
	Field string // field name; empty to name the whole type
}

// String renders the canonical textual form.
func (r FieldRef) String() string {
	if r.Field == "" {
		return r.Pkg + "." + r.Type
	}
	return r.Pkg + "." + r.Type + "." + r.Field
}
