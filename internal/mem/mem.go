// Package mem defines the primitive vocabulary shared by every component
// of the simulator: byte addresses, memory accesses, and the geometry
// arithmetic (word/block/set extraction) that caches, stream buffers and
// filters all agree on.
//
// All components operate on physical byte addresses. The paper's
// off-chip hardware never sees program counters, so an Access carries
// only the address and the kind of reference; an optional PC field is
// retained for workload instrumentation and debugging but is never
// consulted by the prefetch hardware models.
package mem

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// Kind classifies a memory access.
type Kind uint8

// The three access kinds the trace format distinguishes.
const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
	// IFetch is an instruction fetch.
	IFetch
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case IFetch:
		return "I"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined access kinds.
func (k Kind) Valid() bool { return k <= IFetch }

// Access is a single memory reference as produced by a workload
// generator or decoded from a trace file.
type Access struct {
	// Addr is the physical byte address referenced.
	Addr Addr
	// PC is the program counter of the issuing instruction. The
	// stream-buffer hardware never reads it (the paper's point: off-
	// chip logic does not see PCs), but the on-chip Baer-Chen baseline
	// in internal/rpt does, and traces carry it for that comparison.
	// Zero means unknown.
	PC Addr
	// Kind says whether this is a load, store or instruction fetch.
	Kind Kind
	// Size is the access width in bytes (informational; the cache
	// models operate at block granularity). Zero means "word".
	Size uint8
}

// String formats the access for debugging.
func (a Access) String() string {
	return fmt.Sprintf("%s 0x%x", a.Kind, uint64(a.Addr))
}

// Geometry captures the fixed layout parameters of the memory system:
// how many bytes a machine word and a cache block occupy. Both must be
// powers of two. The zero Geometry is not valid; use DefaultGeometry or
// NewGeometry.
type Geometry struct {
	wordBytes  uint
	blockBytes uint
	wordShift  uint
	blockShift uint
}

// The paper's assumed geometry: 4-byte words, 64-byte cache blocks.
const (
	defaultWordBytes  = 4
	defaultBlockBytes = 64
)

// Compile-time guards on the default geometry: editing the constants
// above to an invalid combination must fail the build, not panic (or
// silently corrupt address arithmetic) in every importing program.
// A violated guard makes the array length negative.
var (
	_ [defaultWordBytes - 1]struct{}                           // word size >= 1
	_ [-(defaultWordBytes & (defaultWordBytes - 1))]struct{}   // word size a power of two
	_ [-(defaultBlockBytes & (defaultBlockBytes - 1))]struct{} // block size a power of two
	_ [defaultBlockBytes - defaultWordBytes]struct{}           // block size >= word size
)

// DefaultGeometry matches the paper's assumptions: 4-byte words and
// 64-byte cache blocks. The constants are validated at compile time
// (see the guards above), so no error path exists.
func DefaultGeometry() Geometry {
	return Geometry{
		wordBytes:  defaultWordBytes,
		blockBytes: defaultBlockBytes,
		wordShift:  log2(defaultWordBytes),
		blockShift: log2(defaultBlockBytes),
	}
}

// NewGeometry builds a Geometry with the given word and block sizes in
// bytes. Both must be powers of two, wordBytes must be at least 1, and
// blockBytes must be a multiple of wordBytes.
func NewGeometry(wordBytes, blockBytes uint) (Geometry, error) {
	switch {
	case wordBytes == 0 || wordBytes&(wordBytes-1) != 0:
		return Geometry{}, fmt.Errorf("mem: word size %d is not a power of two", wordBytes)
	case blockBytes == 0 || blockBytes&(blockBytes-1) != 0:
		return Geometry{}, fmt.Errorf("mem: block size %d is not a power of two", blockBytes)
	case blockBytes < wordBytes:
		return Geometry{}, fmt.Errorf("mem: block size %d smaller than word size %d", blockBytes, wordBytes)
	}
	return Geometry{
		wordBytes:  wordBytes,
		blockBytes: blockBytes,
		wordShift:  log2(wordBytes),
		blockShift: log2(blockBytes),
	}, nil
}

// log2 returns the base-2 logarithm of a power of two.
func log2(v uint) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// BlockBytes returns the cache block size in bytes.
func (g Geometry) BlockBytes() uint { return g.blockBytes }

// BlockShift returns log2(block size).
func (g Geometry) BlockShift() uint { return g.blockShift }

// WordShift returns log2(word size).
func (g Geometry) WordShift() uint { return g.wordShift }

// WordsPerBlock returns the number of machine words in a cache block.
func (g Geometry) WordsPerBlock() uint { return g.blockBytes / g.wordBytes }

// BlockAddr maps a byte address to its cache block number.
func (g Geometry) BlockAddr(a Addr) Addr { return a >> g.blockShift }

// BlockBase returns the byte address of the first byte of a's block.
func (g Geometry) BlockBase(a Addr) Addr {
	return a &^ Addr(g.blockBytes-1)
}

// WordAddr maps a byte address to its machine word number. Word
// addresses are the currency of the non-unit-stride detection hardware:
// the czone partitioning of Section 7 splits *word* addresses.
func (g Geometry) WordAddr(a Addr) Addr { return a >> g.wordShift }

// BlockToByte converts a block number back to the byte address of the
// block's first byte.
func (g Geometry) BlockToByte(b Addr) Addr { return b << g.blockShift }

// BlockOfWord maps a word number to its block number.
func (g Geometry) BlockOfWord(w Addr) Addr {
	return w >> (g.blockShift - g.wordShift)
}
