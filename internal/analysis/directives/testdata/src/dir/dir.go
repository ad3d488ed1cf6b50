// Package dir exercises the directives analyzer: every //simlint:*
// comment must parse, resolve and attach to a declaration. The
// analyzer anchors diagnostics at the directive itself, so the want
// expectations ride inside the directive comments — SplitDirective
// cuts the directive at an embedded "//" remark, so the trailing want
// text never reads as arguments.
package dir

// Good is properly annotated: a bare func verb on a declaration.
//
//simlint:hotpath
func Good() {}

type holder struct{}

// GoodBorrow lends both its receiver and its parameter, in the
// comma-separated form.
//
//simlint:borrowed h,b
func (h *holder) GoodBorrow(b []int) { _ = b }

// Timed carries arguments, which only _test.go gate files may.
//
//simlint:hotpath extra // want `//simlint:hotpath takes no arguments outside _test\.go gate files`
func Timed() {}

// Lend forgets to say which value is lent.
//
//simlint:borrowed // want `//simlint:borrowed names no parameters; say which values are lent`
func Lend(batch []int) { _ = batch }

// Lend2 names a parameter that does not exist.
//
//simlint:borrowed batches // want `//simlint:borrowed names "batches", which is not a receiver or parameter of Lend2`
func Lend2(batch []int) { _ = batch }

func orphans() {
	//simlint:deterministic // want `//simlint:deterministic is not attached to a function declaration; the annotation is dead`
	//simlint:borrowed batch // want `//simlint:borrowed is not attached to a function declaration; the annotation is dead`
	//simlint:hotpat // want `unknown simlint directive "hotpat"`
	//simlint: // want `empty simlint directive`
	_ = 0
}

// waived carries the retired waiver verb. A finding is fixed, not
// suppressed, so the verb no longer parses.
func waived() {
	//simlint:ignore detflow // want `unknown simlint directive "ignore"`
	_ = 0
}

// Ledger carries a marker of the retired snapshot-coverage analyzer,
// which no longer parses as a verb.
//
//simlint:state // want `unknown simlint directive "state"`
type Ledger struct{ n int }
