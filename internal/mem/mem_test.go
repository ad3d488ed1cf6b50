package mem

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Read, "R"},
		{Write, "W"},
		{IFetch, "I"},
		{Kind(9), "Kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range []Kind{Read, Write, IFetch} {
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
	}
	if Kind(3).Valid() {
		t.Error("Kind(3) should be invalid")
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Addr: 0x1000, Kind: Write}
	if got, want := a.String(), "W 0x1000"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestNewGeometryErrors(t *testing.T) {
	cases := []struct {
		word, block uint
	}{
		{0, 64},  // zero word
		{3, 64},  // non-power-of-two word
		{4, 0},   // zero block
		{4, 48},  // non-power-of-two block
		{64, 32}, // block < word
		{8, 4},   // block < word
	}
	for _, c := range cases {
		if _, err := NewGeometry(c.word, c.block); err == nil {
			t.Errorf("NewGeometry(%d, %d) should fail", c.word, c.block)
		}
	}
}

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if g.BlockBytes() != 64 {
		t.Errorf("BlockBytes = %d, want 64", g.BlockBytes())
	}
	if g.WordsPerBlock() != 16 {
		t.Errorf("WordsPerBlock = %d, want 16", g.WordsPerBlock())
	}
	if g.BlockShift() != 6 {
		t.Errorf("BlockShift = %d, want 6", g.BlockShift())
	}
	if g.WordShift() != 2 {
		t.Errorf("WordShift = %d, want 2", g.WordShift())
	}
}

func TestBlockArithmetic(t *testing.T) {
	g := DefaultGeometry()
	cases := []struct {
		addr  Addr
		block Addr
		base  Addr
		word  Addr
	}{
		{0, 0, 0, 0},
		{63, 0, 0, 15},
		{64, 1, 64, 16},
		{0x1234, 0x48, 0x1200, 0x48d},
	}
	for _, c := range cases {
		if got := g.BlockAddr(c.addr); got != c.block {
			t.Errorf("BlockAddr(%#x) = %#x, want %#x", c.addr, got, c.block)
		}
		if got := g.BlockBase(c.addr); got != c.base {
			t.Errorf("BlockBase(%#x) = %#x, want %#x", c.addr, got, c.base)
		}
		if got := g.WordAddr(c.addr); got != c.word {
			t.Errorf("WordAddr(%#x) = %#x, want %#x", c.addr, got, c.word)
		}
	}
}

func TestBlockOfWord(t *testing.T) {
	g := DefaultGeometry()
	// Word 16 is byte 64 which is block 1.
	if got := g.BlockOfWord(16); got != 1 {
		t.Errorf("BlockOfWord(16) = %d, want 1", got)
	}
	if got := g.BlockOfWord(15); got != 0 {
		t.Errorf("BlockOfWord(15) = %d, want 0", got)
	}
}

// Property: block round trips — BlockToByte(BlockAddr(a)) equals
// BlockBase(a) for every address.
func TestBlockRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(a uint64) bool {
		addr := Addr(a)
		return g.BlockToByte(g.BlockAddr(addr)) == g.BlockBase(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: word round trips — converting to a word number and back
// never moves an address forward and moves it back less than a word.
func TestWordRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	f := func(a uint64) bool {
		addr := Addr(a)
		back := g.WordAddr(addr) << g.WordShift()
		return back <= addr && addr-back < 1<<g.WordShift()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BlockOfWord is consistent with going through byte addresses.
func TestBlockOfWordConsistent(t *testing.T) {
	g := DefaultGeometry()
	f := func(w uint32) bool {
		word := Addr(w)
		return g.BlockOfWord(word) == g.BlockAddr(word<<g.WordShift())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: geometry arithmetic holds for every legal word/block pair.
func TestGeometryAllSizes(t *testing.T) {
	for _, wb := range []uint{1, 2, 4, 8} {
		for _, bb := range []uint{16, 32, 64, 128, 256} {
			if bb < wb {
				continue
			}
			g, err := NewGeometry(wb, bb)
			if err != nil {
				t.Fatalf("NewGeometry(%d, %d): %v", wb, bb, err)
			}
			if g.WordsPerBlock() != bb/wb {
				t.Errorf("WordsPerBlock(%d,%d) = %d, want %d", wb, bb, g.WordsPerBlock(), bb/wb)
			}
			if got := g.BlockAddr(Addr(bb)); got != 1 {
				t.Errorf("BlockAddr(blockBytes) = %d, want 1", got)
			}
		}
	}
}
