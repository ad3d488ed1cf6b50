// Package workload generates the memory reference traces of the
// paper's fifteen benchmarks (eight NAS, seven PERFECT). The paper
// traced Fortran binaries with Shade; since those binaries and tracer
// are unavailable, each benchmark is modelled as a synthetic kernel
// that emits the same *kinds* of reference behaviour the program's
// inner loops produce — unit-stride array sweeps, constant large-stride
// walks (FFT butterflies, dimensional sweeps), scatter/gather
// indirection, short block-structured runs, and stencil neighbourhoods —
// at the data-set sizes of the paper's Table 1.
//
// What the prefetch hardware sees is only the address stream, so a
// model that reproduces the mixture of run lengths, stride values and
// irregularity reproduces the paper's stream buffer behaviour. Each
// benchmark notes, in its doc comment, which Table 1 / Table 3 /
// Figure 3 characteristics it is calibrated to.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"streamsim/internal/mem"
)

// Sink consumes the generated reference stream. core.System satisfies
// it, as does trace.Writer.
type Sink interface {
	// Access presents one memory reference.
	Access(mem.Access)
	// AddInstructions reports n retired instructions (for MPI).
	AddInstructions(n uint64)
}

// BatchSink is a Sink that also accepts references in batches. When
// the sink implements it (core.System and trace.Writer do), the
// kernel machine buffers accBufLen references and delivers them with
// one call, amortizing interface dispatch across the batch. Relative
// order of accesses and instruction counts is preserved exactly: the
// access buffer is always drained before a count is forwarded.
type BatchSink interface {
	Sink
	AccessBatch(accs []mem.Access)
}

// accBufLen is the machine's access buffer size; 512 references keep
// the buffer within the host L1 while making dispatch cost negligible.
const accBufLen = 512

// Size selects the benchmark input scale. The paper's Table 4 grows
// five benchmarks to a second, larger input.
type Size uint8

// Input sizes.
const (
	// SizeSmall is the paper's default input (Table 1).
	SizeSmall Size = iota
	// SizeLarge is the grown input of Table 4.
	SizeLarge
)

// String names the size.
func (s Size) String() string {
	if s == SizeLarge {
		return "large"
	}
	return "small"
}

// Workload is one benchmark: metadata plus the kernel body.
type Workload struct {
	// Name is the paper's benchmark name (e.g. "mgrid").
	Name string
	// Suite is "NAS" or "PERFECT".
	Suite string
	// Description is the Table 1 one-liner.
	Description string
	// Input describes the data-set configuration in Table 1 terms.
	Input string
	// DataBytes is the resident data-set size.
	DataBytes uint64
	// steps is the iteration count of the kernel's one scaled outer
	// loop at scale 1. Run hands the kernel iters(steps, scale), and
	// EstimateRefs scales by the same count, so the two cannot drift.
	steps int
	// run is the kernel body, running its outer loop steps times.
	// Scaling shrinks that count for quick runs without changing the
	// data-set size.
	run func(m *Machine, steps int)
}

// Run drives the kernel, sending its references to sink. scale in
// (0, 1] trades trace length for fidelity; 1 is the experiment default.
func (w *Workload) Run(sink Sink, scale float64) error {
	return w.RunContext(context.Background(), sink, scale)
}

// RunContext is Run with cancellation: the machine polls ctx once per
// delivered batch (accBufLen references), never per reference, so a
// cancelled kernel stops within one batch boundary at zero cost to the
// hot path. On cancellation the sink has received a prefix of the
// trace and the returned error is ctx.Err().
func (w *Workload) RunContext(ctx context.Context, sink Sink, scale float64) (err error) {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("workload %s: scale %v outside (0, 1]", w.Name, scale)
	}
	m := newMachine(sink, w.Name)
	m.ctx, m.done = ctx, ctx.Done()
	// Kernel bodies are plain loops with no error returns; cancellation
	// unwinds them with a typed panic that only RunContext throws and
	// only this recover catches.
	defer func() {
		if r := recover(); r != nil {
			cp, ok := r.(cancelUnwind)
			if !ok {
				panic(r)
			}
			err = cp.err
		}
	}()
	w.run(m, iters(w.steps, scale))
	m.flush()
	return nil
}

// cancelUnwind carries the context error out of a cancelled kernel.
type cancelUnwind struct{ err error }

// iters scales an iteration count, keeping at least one iteration.
func iters(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Machine is the kernel execution context: a bump allocator for the
// benchmark's address space, a deterministic RNG, an instruction
// counter that also synthesizes the (block-granularity) instruction
// fetch stream, and load/store emission helpers.
type Machine struct {
	sink   Sink
	batch  BatchSink    // sink, when it supports batching; else nil
	accBuf []mem.Access // pending references for the batch path
	rng    *rand.Rand

	ctx        context.Context // nil outside RunContext
	done       <-chan struct{} // ctx.Done(), captured once; nil = never cancelled
	scalarRefs int             // scalar-path emits since the last cancel poll

	heap   mem.Addr // bump allocator cursor
	allocs int      // allocation count, drives the de-aliasing skew

	codeBase  mem.Addr
	codeBytes mem.Addr
	codePC    mem.Addr
	pendInsts uint64
}

// Loop models the backward branch of an inner loop: each call resets
// the synthetic PC to the loop's code window (id selects a distinct
// 512-byte window per loop nest). Benchmarks call it once per
// iteration of each reference-issuing loop, which keeps per-site load
// and store PCs stable across iterations — the property PC-indexed
// prefetchers (internal/prefetch's RPT) rely on, and which real loops
// have by construction.
func (m *Machine) Loop(id int) {
	const window = 512
	base := m.codeBase
	if m.codeBytes > window {
		base += mem.Addr(id*window) % (m.codeBytes - window)
	}
	m.codePC = base
	// The taken backward branch re-fetches the loop head (an L1I hit
	// in steady state, as the paper's near-zero I-miss rates reflect).
	m.emit(mem.Access{Addr: base, Kind: mem.IFetch})
}

// Instruction-stream modelling: 4 bytes per instruction, one IFetch
// emitted per 64-byte block boundary crossed, code footprint looping
// cyclically (small loops dominate scientific codes, so the I-stream
// hits the 64 KB L1I almost always — the paper's observation that
// partitioned instruction streams were not beneficial).
const (
	instBytes       = 4
	defaultCodeSize = 8 << 10 // 8 KB of hot loop code
	heapBase        = 1 << 24 // data segment starts at 16 MB
	codeSegBase     = 1 << 20 // code segment at 1 MB
	allocAlign      = 4096    // page-align each array
)

// newMachine seeds the RNG from the workload name so runs are
// deterministic per benchmark.
func newMachine(sink Sink, name string) *Machine {
	var seed int64
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	m := &Machine{
		sink:      sink,
		rng:       rand.New(rand.NewSource(seed)),
		heap:      heapBase,
		codeBase:  codeSegBase,
		codeBytes: defaultCodeSize,
		codePC:    codeSegBase,
	}
	if bs, ok := sink.(BatchSink); ok {
		m.batch = bs
		m.accBuf = make([]mem.Access, 0, accBufLen)
	}
	return m
}

// emit queues one reference, delivering the pending batch when full
// (or immediately on the scalar path). Cancellation is polled once per
// accBufLen references on either path.
func (m *Machine) emit(a mem.Access) {
	if m.batch == nil {
		m.sink.Access(a)
		m.scalarRefs++
		if m.scalarRefs >= accBufLen {
			m.scalarRefs = 0
			m.checkCancel()
		}
		return
	}
	m.accBuf = append(m.accBuf, a)
	if len(m.accBuf) == accBufLen {
		m.batch.AccessBatch(m.accBuf)
		m.accBuf = m.accBuf[:0]
		m.checkCancel()
	}
}

// checkCancel polls the cancellation signal; a non-blocking receive on
// a (possibly nil) channel, so the per-batch cost is a few nanoseconds
// and the per-reference cost is zero.
func (m *Machine) checkCancel() {
	select {
	case <-m.done:
		panic(cancelUnwind{m.ctx.Err()})
	default:
	}
}

// Alloc reserves bytes of the data segment and returns the base
// address. Consecutive allocations are skewed by a growing, non-
// power-of-two pad so that simultaneously-walked arrays do not alias
// into the same cache sets (real Fortran COMMON-block layouts have the
// same property; perfectly set-aligned arrays would thrash even a
// 4-way cache).
func (m *Machine) Alloc(bytes uint64) mem.Addr {
	base := m.heap
	m.heap += mem.Addr((bytes + allocAlign - 1) &^ (allocAlign - 1))
	m.allocs++
	m.heap += mem.Addr(m.allocs) * 1088 // de-aliasing skew, 64B-aligned
	return base
}

// Inst retires n instructions, advancing the synthetic PC and emitting
// block-granularity instruction fetches.
func (m *Machine) Inst(n int) {
	if n <= 0 {
		return
	}
	m.pendInsts += uint64(n)
	oldBlk := m.codePC >> 6
	m.codePC += mem.Addr(n * instBytes)
	for blk := oldBlk + 1; blk <= m.codePC>>6; blk++ {
		pc := blk << 6
		if pc >= m.codeBase+m.codeBytes {
			m.codePC = m.codeBase + (m.codePC - (m.codeBase + m.codeBytes))
			pc = m.codeBase
			blk = pc >> 6
			m.emit(mem.Access{Addr: pc, Kind: mem.IFetch})
			break
		}
		m.emit(mem.Access{Addr: pc, Kind: mem.IFetch})
	}
	if m.pendInsts >= 1<<16 {
		m.flush()
	}
}

// flush drains the access buffer and forwards batched instruction
// counts to the sink, in that order, so the sink sees every access
// that preceded the counts.
func (m *Machine) flush() {
	if len(m.accBuf) > 0 {
		m.batch.AccessBatch(m.accBuf)
		m.accBuf = m.accBuf[:0]
	}
	if m.pendInsts > 0 {
		m.sink.AddInstructions(m.pendInsts)
		m.pendInsts = 0
	}
}

// Load emits a data load, stamped with the current synthetic PC so
// PC-indexed prefetchers (internal/prefetch's RPT) can correlate it
// with its issuing instruction site. The load is itself an instruction
// slot: the PC advances past it, so the several references of one loop
// body occupy distinct, iteration-stable PCs.
func (m *Machine) Load(a mem.Addr) {
	m.emit(mem.Access{Addr: a, PC: m.codePC, Kind: mem.Read})
	m.codePC += instBytes
}

// Store emits a data store (see Load for PC semantics).
func (m *Machine) Store(a mem.Addr) {
	m.emit(mem.Access{Addr: a, PC: m.codePC, Kind: mem.Write})
	m.codePC += instBytes
}

// Rand returns the machine's deterministic RNG.
func (m *Machine) Rand() *rand.Rand { return m.rng }

// --- kernel toolkit -------------------------------------------------

// BlockRun loads a short contiguous run of bytes (a dense sub-block,
// e.g. one 5x5 Jacobian) starting at base.
func (m *Machine) BlockRun(base mem.Addr, bytes uint, instsPerRef int) {
	for off := mem.Addr(0); off < mem.Addr(bytes); off += 8 {
		m.Load(base + off)
		m.Inst(instsPerRef)
	}
}

// --- registry --------------------------------------------------------

// New returns the named benchmark at the given input size. Names match
// the paper's Table 1. Only the five Table 4 benchmarks accept
// SizeLarge; the rest reject it.
func New(name string, size Size) (*Workload, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	w, err := ctor(size)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Names returns every benchmark name in the paper's Table 1 order.
func Names() []string {
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// GrowableNames returns the Table 4 benchmarks that accept SizeLarge.
func GrowableNames() []string {
	var out []string
	for _, n := range order {
		if growable[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// order is the paper's Table 1 listing.
var order = []string{
	"embar", "mgrid", "cgm", "fftpde", "is", "appsp", "appbt", "applu",
	"spec77", "adm", "bdna", "dyfesm", "mdg", "qcd", "trfd",
}

// growable marks the benchmarks Table 4 grows.
var growable = map[string]bool{
	"appsp": true, "appbt": true, "applu": true, "cgm": true, "mgrid": true,
}

// refCounts holds the measured reference count (data accesses plus
// instruction fetches) of each benchmark at scale 1, small and large
// inputs; zero marks an undefined large input. Every outer-loop step
// of a kernel emits the same number of references, so EstimateRefs
// scales these by the step count. TestEstimateRefsMatchesRecording
// pins them against the kernels: retuning a kernel's loop body means
// re-measuring its entry here.
var refCounts = map[string][2]uint64{
	"embar":  {6029312, 0},
	"mgrid":  {2252620, 17162060},
	"cgm":    {6535200, 8265600},
	"fftpde": {11010048, 0},
	"is":     {5959840, 0},
	"appsp":  {1347840, 10782720},
	"appbt":  {4478976, 35831808},
	"applu":  {1632960, 13374720},
	"spec77": {7895040, 0},
	"adm":    {4900080, 0},
	"bdna":   {5898240, 0},
	"dyfesm": {9686400, 0},
	"mdg":    {13801830, 0},
	"qcd":    {5256576, 0},
	"trfd":   {10500000, 0},
}

// EstimateRefs estimates how many references the named benchmark
// emits at the given input size and scale: the preallocation hint for
// trace recording, and the weight that orders the experiments' rows.
// It scales the measured count by the kernel's own step count,
// iters(steps, scale), so it models the clamp to at least one outer
// step that makes two-step kernels such as fftpde and trfd record a
// whole step at any scale below 0.5. Below scale 1 it adds 1% of
// slack. Unknown benchmarks (or sizes) return zero, which callers
// treat as "no hint".
func EstimateRefs(name string, size Size, scale float64) uint64 {
	counts, ok := refCounts[name]
	if !ok {
		return 0
	}
	w, err := New(name, size)
	if err != nil {
		return 0
	}
	n := counts[0]
	if size == SizeLarge {
		n = counts[1]
	}
	if scale < 1 {
		n = uint64(float64(n) * float64(iters(w.steps, scale)) / float64(w.steps) * 1.01)
	}
	return n
}

// registry maps names to constructors; populated by nas.go/perfect.go.
var registry = map[string]func(Size) (*Workload, error){}

// register adds a benchmark constructor; called from init functions.
func register(name string, ctor func(Size) (*Workload, error)) {
	registry[name] = ctor
}

// sizeOnlySmall rejects SizeLarge for non-Table 4 benchmarks.
func sizeOnlySmall(name string, size Size) error {
	if size != SizeSmall {
		return fmt.Errorf("workload %s: only the small input is defined (Table 4 grows appsp, appbt, applu, cgm, mgrid)", name)
	}
	return nil
}
