// Package dir exercises the directives analyzer: every //simlint:*
// comment must parse and attach to a declaration. The analyzer anchors
// diagnostics at the directive itself, so the want expectations ride
// inside the directive comments — SplitDirective cuts the directive at
// an embedded "//" remark, so the trailing want text never reads as
// arguments.
package dir

// Good is properly annotated: a bare func verb on a declaration.
//
//simlint:deterministic
func Good() {}

// Load is a config loader, the other func verb.
//
//simlint:configload
func Load() {}

// Timed carries arguments, which only _test.go gate files may.
//
//simlint:deterministic extra // want `//simlint:deterministic takes no arguments outside _test\.go gate files`
func Timed() {}

func orphans() {
	//simlint:deterministic // want `//simlint:deterministic is not attached to a function declaration; the annotation is dead`
	//simlint:configload // want `//simlint:configload is not attached to a function declaration; the annotation is dead`
	//simlint:determinstic // want `unknown simlint directive "determinstic"`
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

// Hot carries the retired allocation and borrowing verbs. The runtime
// allocation gates and the poisoned-buffer test hold what they marked,
// so a stale one reports like any unknown verb.
//
//simlint:hotpath // want `unknown simlint directive "hotpath"`
//simlint:coldpath // want `unknown simlint directive "coldpath"`
//simlint:borrowed batch // want `unknown simlint directive "borrowed"`
func Hot(batch []int) { _ = batch }
