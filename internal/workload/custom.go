// Custom workloads: a parameterized generator for users who want to
// explore the memory system on their own reference mixes rather than
// the paper's fifteen benchmarks.
package workload

import (
	"fmt"

	"streamsim/internal/mem"
)

// CustomParams describes a synthetic reference mix. Shares are
// relative weights (they need not sum to 1); each emitted reference is
// drawn from the weighted mix.
type CustomParams struct {
	// Name labels the workload (default "custom").
	Name string
	// DataBytes sizes the arena the references fall in (default 8 MB).
	DataBytes uint64
	// References is the trace length at scale 1 (default 1e6).
	References int
	// SequentialShare weights unit-stride sweep references.
	SequentialShare float64
	// StrideShare weights constant-stride walk references.
	StrideShare float64
	// StrideBytes is the constant stride (default 4096).
	StrideBytes int64
	// RandomShare weights uniformly random references.
	RandomShare float64
	// ResidentShare weights references into a cache-resident workspace.
	ResidentShare float64
	// WriteFraction is the probability a data reference is a store.
	WriteFraction float64
	// InstsPerRef is the compute density (default 8).
	InstsPerRef int
}

// withDefaults fills zero fields.
func (p CustomParams) withDefaults() CustomParams {
	if p.Name == "" {
		p.Name = "custom"
	}
	if p.DataBytes == 0 {
		p.DataBytes = 8 << 20
	}
	if p.References == 0 {
		p.References = 1 << 20
	}
	if p.StrideBytes == 0 {
		p.StrideBytes = 4096
	}
	if p.InstsPerRef == 0 {
		p.InstsPerRef = 8
	}
	return p
}

// validate rejects unusable parameter sets.
func (p CustomParams) validate() error {
	total := p.SequentialShare + p.StrideShare + p.RandomShare + p.ResidentShare
	if total <= 0 {
		return fmt.Errorf("workload: custom mix has no positive share")
	}
	for _, s := range []float64{p.SequentialShare, p.StrideShare, p.RandomShare, p.ResidentShare, p.WriteFraction} {
		if s < 0 {
			return fmt.Errorf("workload: negative share in %+v", p)
		}
	}
	if p.WriteFraction > 1 {
		return fmt.Errorf("workload: write fraction %v > 1", p.WriteFraction)
	}
	if p.StrideBytes < 0 {
		return fmt.Errorf("workload: negative stride %d (use a positive stride; backward walks come from the detector)", p.StrideBytes)
	}
	return nil
}

// Custom builds a workload from the parameter mix.
func Custom(p CustomParams) (*Workload, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	total := p.SequentialShare + p.StrideShare + p.RandomShare + p.ResidentShare
	return &Workload{
		Name: p.Name, Suite: "custom",
		Description: "user-defined reference mix",
		Input: fmt.Sprintf("seq %.0f%% / stride %.0f%% / random %.0f%% / resident %.0f%%",
			100*p.SequentialShare/total, 100*p.StrideShare/total,
			100*p.RandomShare/total, 100*p.ResidentShare/total),
		DataBytes: p.DataBytes,
		steps:     p.References,
		run: func(m *Machine, n int) {
			arena := m.Alloc(p.DataBytes)
			resident := m.Alloc(8 << 10)
			rng := m.Rand()
			seqPos, stridePos := int64(0), int64(0)
			arenaBytes := int64(p.DataBytes)
			for i := 0; i < n; i++ {
				m.Loop(0)
				r := rng.Float64() * total
				var addr mem.Addr
				switch {
				case r < p.SequentialShare:
					addr = arena + mem.Addr(seqPos)
					seqPos = (seqPos + 8) % arenaBytes
				case r < p.SequentialShare+p.StrideShare:
					addr = arena + mem.Addr(stridePos)
					stridePos = (stridePos + p.StrideBytes) % arenaBytes
				case r < p.SequentialShare+p.StrideShare+p.RandomShare:
					addr = arena + mem.Addr(rng.Int63n(arenaBytes))&^7
				default:
					addr = resident + mem.Addr(rng.Intn(1024))*8
				}
				if rng.Float64() < p.WriteFraction {
					m.Store(addr)
				} else {
					m.Load(addr)
				}
				m.Inst(p.InstsPerRef)
			}
		},
	}, nil
}
