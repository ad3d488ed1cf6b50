// Package stcdep supplies a state struct and helpers from a sibling
// package, so the stc fixture can prove statecov's closure follows
// coverage across package boundaries via the shared call-graph facts.
package stcdep

// Tally is a state struct owned by another package.
//
//simlint:state
type Tally struct {
	Ops  uint64
	Errs uint64
}

// Copy clones t, covering both fields.
func Copy(t *Tally) *Tally {
	return &Tally{Ops: t.Ops, Errs: t.Errs}
}

// CopyOps covers only Ops, leaving Errs for the caller to forget.
func CopyOps(t *Tally) *Tally {
	return &Tally{Ops: t.Ops}
}
