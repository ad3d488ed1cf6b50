// Package bor exercises the borrowck analyzer: a //simlint:borrowed
// parameter is lent for the duration of the call, and every way of
// keeping it alive past the return is a finding.
package bor

var leak []int

// Keep stores the lent batch into a package variable.
//
//simlint:borrowed batch
func Keep(batch []int) {
	leak = batch // want `parameter batch of bor\.Keep is //simlint:borrowed but escapes: stored to package variable leak \(bor\.go:\d+\)`
}

type sink struct{ kept []int }

// Stash retains the batch through a struct field.
//
//simlint:borrowed batch
func (s *sink) Stash(batch []int) {
	s.kept = batch // want `parameter batch of \(\*bor\.sink\)\.Stash is //simlint:borrowed but escapes: stored to field or element s\.kept \(bor\.go:\d+\)`
}

// Echo hands the borrow back out through its return value.
//
//simlint:borrowed batch
func Echo(batch []int) []int {
	return batch // want `parameter batch of bor\.Echo is //simlint:borrowed but escapes: returned to the caller \(bor\.go:\d+\)`
}

// Publish sends the borrow to whoever drains the channel.
//
//simlint:borrowed batch
func Publish(batch []int, ch chan []int) {
	ch <- batch // want `parameter batch of bor\.Publish is //simlint:borrowed but escapes: sent on a channel \(bor\.go:\d+\)`
}

// Spawn lets a goroutine outlive the call with the borrow in hand.
//
//simlint:borrowed batch
func Spawn(batch []int) {
	go consume(batch) // want `parameter batch of bor\.Spawn is //simlint:borrowed but escapes: passed to a goroutine \(bor\.go:\d+\)`
}

func consume(b []int) { _ = b }

var hooks []func()

// Defer retains the borrow inside a stored closure.
//
//simlint:borrowed batch
func Defer(batch []int) {
	hooks = append(hooks, func() { // want `parameter batch of bor\.Defer is //simlint:borrowed but escapes: captured by a func literal \(bor\.go:\d+\)`
		_ = batch[0]
	})
}

var chainLeak []int

// Chain forwards the borrow two hops before it is retained; the
// finding reports the full forwarding chain, anchored at the site.
//
//simlint:borrowed b
func Chain(b []int) {
	mid(b)
}

func mid(b []int) {
	deep(b)
}

func deep(b []int) {
	chainLeak = b // want `parameter b of bor\.Chain is //simlint:borrowed but escapes via bor\.Chain → bor\.mid → bor\.deep: stored to package variable chainLeak \(bor\.go:\d+\)`
}

// Acc is all scalars, like mem.Access: copying an element out of a
// borrowed batch carries no reference and ends the borrow.
type Acc struct {
	Addr uint64
	Kind int
}

var lastAcc Acc

// Sample copies a value element out; allowed.
//
//simlint:borrowed accs
func Sample(accs []Acc) {
	lastAcc = accs[0]
}

// send reads the lent batch; its own declaration is verified, so
// forwarding a borrow to it is allowed by induction.
//
//simlint:borrowed b
func send(b []int) int {
	total := 0
	for _, v := range b {
		total += v
	}
	return total
}

// Relay forwards its borrow only to another borrowed parameter.
//
//simlint:borrowed batch
func Relay(batch []int) int {
	return send(batch)
}

// Consumer stands in for dynamic dispatch: the static call graph stops
// at interface methods, the same seam every call-graph analyzer draws.
type Consumer interface {
	Consume(b []int)
}

// Dispatch hands the borrow to an interface method; allowed.
//
//simlint:borrowed batch
func Dispatch(c Consumer, batch []int) {
	c.Consume(batch)
}

// probe mirrors cache.Prober: the receiver itself is lent for the
// batch.
type probe struct {
	tags []uint64
	hits int
}

// Touch reads through the borrowed receiver and bumps its own
// counter; neither retains the receiver.
//
//simlint:borrowed p
func (p *probe) Touch(addr uint64) bool {
	for _, t := range p.tags {
		if t == addr {
			p.hits++
			return true
		}
	}
	return false
}

// Mark writes through the borrowed snapshot; mutating lent storage is
// the point of lending it.
//
//simlint:borrowed p
func (p *probe) Mark(i int, v uint64) {
	p.tags[i] = v
}
