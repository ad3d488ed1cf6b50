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

func suppressions() {
	//simlint:ignore seededrand,detflow
	_ = 0
	//simlint:ignore seededrand, detflow // want `//simlint:ignore list must be one comma-separated token without spaces \(the suppression matcher reads only the first token\)`
	_ = 1
	//simlint:ignore nosuchpass // want `//simlint:ignore names unknown analyzer "nosuchpass"`
	_ = 2
	//simlint:ignore // want `//simlint:ignore names no analyzers; say which findings are waived`
	_ = 3
	//simlint:ignore statecov,hotpath
	_ = 4
}

// Ledger is a well-formed state struct with a class-scoped and a
// global exemption.
//
//simlint:state
//simlint:statederived Total
//simlint:statederived Spill fork clone
type Ledger struct {
	Hits  uint64
	Total uint64
	Spill uint64
}

// Engine is a well-formed plain state struct.
//
//simlint:state
type Engine struct {
	Ledger
	ticks uint64
}

// GoodFork carries a known class.
//
//simlint:statefull fork
func (e *Engine) GoodFork() *Engine { return &Engine{ticks: e.ticks} }

// Fahrenheit is annotated state but is no struct.
//
//simlint:state // want `//simlint:state must annotate a struct type; Fahrenheit is not a struct`
type Fahrenheit float64

// Sized passes an argument; state takes none, not even a kind.
//
//simlint:state counters // want `//simlint:state takes no arguments`
type Sized struct{ n int }

// Loose rides on a struct that never declares itself state.
//
//simlint:statederived n // want `//simlint:statederived on Loose is orphaned: the type carries no //simlint:state directive`
type Loose struct{ n int }

// Misfield names a field the struct does not have; Misclass restricts
// to an unknown class; Unnamed forgets the field.
//
//simlint:state
//simlint:statederived gone // want `//simlint:statederived names "gone", which is not a field of Misfield`
//simlint:statederived n mangle // want `//simlint:statederived names unknown class "mangle"`
//simlint:statederived // want `//simlint:statederived names no field; say which field is exempt`
type Misfield struct{ n int }

// ClassyLess forgets its class, ClassyWrong names one that does not exist.
//
//simlint:statefull // want `//simlint:statefull needs exactly one class argument \(fork, clone, checkpoint or restore\)`
func ClassyLess() {}

//simlint:statefull merge // want `//simlint:statefull names unknown class "merge"`
func ClassyWrong() {}

func stateOrphans() {
	//simlint:state // want `//simlint:state is not attached to a type declaration; the annotation is dead`
	//simlint:statefull fork // want `//simlint:statefull is not attached to a function declaration; the annotation is dead`
	//simlint:statederived n // want `//simlint:statederived is not attached to a type declaration; the annotation is dead`
	_ = 0
}
