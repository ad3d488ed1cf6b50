// PERFECT benchmark models (Table 1, last seven rows). These codes
// have smaller data sets and much lower miss rates than the NAS
// kernels; their misses are dominated by gathers, scatters and short
// block-structured runs, which is why several of them sit in the lower
// hit-rate band of Figure 3.
package workload

import "streamsim/internal/mem"

func init() {
	register("spec77", newSpec77)
	register("adm", newAdm)
	register("bdna", newBdna)
	register("dyfesm", newDyfesm)
	register("mdg", newMdg)
	register("qcd", newQcd)
	register("trfd", newTrfd)
}

// newSpec77 models the spectral weather code: long Legendre-transform
// dot products (sequential sweeps over ~1.3 MB of coefficients)
// interleaved with latitude FFTs at a moderate constant stride, plus a
// cache-resident physics workspace. Calibration: data 1.3 MB, miss
// rate 0.50%, MPI 0.15%, hit rate ~73%, hits ~22% short / 64% >20.
func newSpec77(size Size) (*Workload, error) {
	if err := sizeOnlySmall("spec77", size); err != nil {
		return nil, err
	}
	const coeffs = 96 << 10 // 768 KB of spectral coefficients
	const gridPts = 64 << 10
	return &Workload{
		Name: "spec77", Suite: "PERFECT",
		Description: "Weather simulation (spectral)",
		Input:       "720 time steps",
		DataBytes:   coeffs*dbl + gridPts*dbl,
		steps:       10,
		run: func(m *Machine, steps int) {
			spec := m.Alloc(coeffs * dbl)
			grid := m.Alloc(gridPts * dbl)
			work := m.Alloc(8 << 10) // physics workspace: resident
			rng := m.Rand()
			const lat = 128 // points per latitude line
			for t := 0; t < steps; t++ {
				// Legendre transform: stream the coefficient array
				// with resident associated-polynomial compute.
				for i := 0; i < coeffs; i++ {
					m.Loop(0)
					m.Load(spec + mem.Addr(i*dbl))
					m.Load(work + mem.Addr((i%512)*8))
					m.Load(work + mem.Addr(((i+128)%512)*8))
					m.Inst(14)
				}
				// Latitude FFTs: each line is contiguous, so the
				// butterflies stream unit stride line by line.
				for line := 0; line < gridPts/lat; line++ {
					base := grid + mem.Addr(line*lat*dbl)
					for i := 0; i < lat; i++ {
						m.Loop(1)
						m.Load(base + mem.Addr(i*dbl))
						m.Load(work + mem.Addr((i%512)*8))
						m.Store(base + mem.Addr(i*dbl))
						m.Inst(12)
					}
				}
				// Meridional derivatives: a modest strided component
				// (stride lat*dbl = 1 KB) over one field.
				for col := 0; col < lat; col += 64 {
					for i := 0; i < gridPts/lat; i++ {
						m.Loop(2)
						m.Load(grid + mem.Addr((i*lat+col)*dbl))
						m.Inst(10)
					}
				}
				// Grid-point physics: resident workspace churn with
				// occasional table lookups scattered over the spectral
				// array (surface-type and latitude-band tables).
				for i := 0; i < 16<<10; i++ {
					m.Loop(3)
					m.Load(work + mem.Addr((i%1024)*8))
					m.Inst(13)
					if i%32 == 0 {
						m.Load(spec + mem.Addr(rng.Intn(coeffs)*dbl))
						m.Inst(5)
					}
				}
			}
		},
	}, nil
}

// newAdm models the air-pollution code: almost all references hit a
// resident working set (miss rate 0.04%, MPI ~0), and the rare misses
// are array-indirection gathers scattered across a ~600 KB field —
// exactly the isolated references streams cannot help with, putting
// adm at the bottom of Figure 3 (~25-30%).
func newAdm(size Size) (*Workload, error) {
	if err := sizeOnlySmall("adm", size); err != nil {
		return nil, err
	}
	const fieldElems = 72 << 10 // ~576 KB pollutant field
	return &Workload{
		Name: "adm", Suite: "PERFECT",
		Description: "Air pollution (implicit transport)",
		Input:       "64 x 1 x 16 grid, 720 time steps",
		DataBytes:   fieldElems * dbl,
		steps:       40,
		run: func(m *Machine, steps int) {
			field := m.Alloc(fieldElems * dbl)
			work := m.Alloc(16 << 10) // resident solver workspace
			rng := m.Rand()
			for t := 0; t < steps; t++ {
				for i := 0; i < 60000; i++ {
					m.Loop(0)
					// Dominant resident compute...
					m.Load(work + mem.Addr((i%2048)*8))
					m.Inst(14)
					// ...with sparse scattered gathers into the field.
					if i%48 == 0 {
						g := rng.Intn(fieldElems - 32)
						m.Load(field + mem.Addr(g*dbl))
						m.Inst(6)
						// A quarter of the gathers interpolate a short
						// neighbourhood (a 3-block run).
						if i%192 == 0 {
							m.Load(field + mem.Addr(g*dbl) + 64)
							m.Load(field + mem.Addr(g*dbl) + 128)
							m.Load(field + mem.Addr(g*dbl) + 192)
							m.Inst(12)
						}
					}
				}
			}
		},
	}, nil
}

// newBdna models the nucleic-acid MD code: neighbour-list force loops
// that gather ~24-byte coordinate records from all over a ~2 MB
// position/force arena — very short stream lives. This is the paper's
// EB worst case (150% unfiltered): every isolated gather allocates a
// stream whose prefetches are flushed. Calibration: data 2.1 MB, miss
// rate 1.39%, MPI 0.42%, hit rate ~55-60%, hits 36% short / 33% >20.
func newBdna(size Size) (*Workload, error) {
	if err := sizeOnlySmall("bdna", size); err != nil {
		return nil, err
	}
	const atoms = 40 << 10 // 40K atom records
	const rec = 48         // position + velocity + force per atom
	return &Workload{
		Name: "bdna", Suite: "PERFECT",
		Description: "Nucleic acid simulation (molecular dynamics)",
		Input:       "500 molecules, 20 counter ions",
		DataBytes:   atoms * rec,
		steps:       6,
		run: func(m *Machine, steps int) {
			arena := m.Alloc(atoms * rec)
			nbr := m.Alloc(atoms * 4)
			work := m.Alloc(4 << 10) // potential tables: resident
			rng := m.Rand()
			for t := 0; t < steps; t++ {
				// Force loop: walk atoms in order (their records and
				// the neighbour-index list stream sequentially), with
				// a couple of scattered partner gathers per atom.
				// Verlet-list locality makes ~40% of partners land
				// near the current atom (often cache-resident).
				for i := 0; i < atoms; i++ {
					m.Loop(0)
					m.Load(arena + mem.Addr(i*rec))
					m.Load(arena + mem.Addr(i*rec) + 16)
					m.Load(nbr + mem.Addr(i*4))
					// Pair-potential evaluation from resident tables.
					for k := 0; k < 8; k++ {
						m.Load(work + mem.Addr(((i+k*67)%512)*8))
						m.Inst(9)
					}
					var j int
					if rng.Intn(20) < 11 {
						j = i - 64 + rng.Intn(128) // local partner
						if j < 0 || j >= atoms {
							j = i
						}
					} else {
						j = rng.Intn(atoms) // far partner
					}
					m.Load(arena + mem.Addr(j*rec))
					m.Load(arena + mem.Addr(j*rec) + 16)
					m.Store(arena + mem.Addr(i*rec) + 32)
					m.Inst(26)
				}
				// Bonded-force and integration sweeps: the long
				// sequential component (33% of bdna's hits are from
				// streams longer than 20 in Table 3).
				for i := 0; i < atoms; i++ {
					m.Loop(1)
					m.Load(arena + mem.Addr(i*rec) + 32)
					m.Store(arena + mem.Addr(i*rec) + 40)
					m.Inst(12)
				}
			}
		},
	}, nil
}

// newDyfesm models the structural-dynamics FEM code: a ~100 KB model
// accessed through element-to-node indirection. Nearly everything is
// resident (miss rate 0.01%); the trickle of misses is scattered
// gathers, so streams rarely help (bottom band of Figure 3 with adm).
func newDyfesm(size Size) (*Workload, error) {
	if err := sizeOnlySmall("dyfesm", size); err != nil {
		return nil, err
	}
	const nodes = 12 << 10 // ~96 KB of nodal data
	return &Workload{
		Name: "dyfesm", Suite: "PERFECT",
		Description: "Structural dynamics (FEM)",
		Input:       "4 elements, 1000 time steps",
		DataBytes:   nodes * dbl,
		steps:       60,
		run: func(m *Machine, steps int) {
			nodal := m.Alloc(nodes * dbl)
			elem := m.Alloc(8 << 10) // element matrices: resident
			rng := m.Rand()
			for t := 0; t < steps; t++ {
				// Displacement/velocity updates: two sequential sweeps
				// of the nodal arrays per step.
				for i := 0; i < nodes; i++ {
					m.Loop(0)
					m.Load(nodal + mem.Addr(i*dbl))
					m.Inst(7)
				}
				for i := 0; i < nodes; i++ {
					m.Loop(1)
					m.Load(nodal + mem.Addr(i*dbl))
					m.Store(nodal + mem.Addr(i*dbl))
					m.Inst(8)
				}
				for e := 0; e < 2000; e++ {
					m.Loop(2)
					// Element compute on resident matrices.
					for k := 0; k < 24; k++ {
						m.Load(elem + mem.Addr(((k*64+e%64)%1024)*8))
						m.Inst(9)
					}
					// Gather/scatter four nodes of this element; node
					// numbering is irregular after mesh renumbering.
					for k := 0; k < 4; k++ {
						nd := rng.Intn(nodes)
						m.Load(nodal + mem.Addr(nd*dbl))
						m.Store(nodal + mem.Addr(nd*dbl))
						m.Inst(7)
					}
				}
			}
		},
	}, nil
}

// newMdg models the liquid-water MD code: O(N^2)-ish pair interactions
// over 343 molecules (~200 KB). Each partner's 72-byte record is a
// short run at an effectively random offset, giving the paper's 50%
// of hits from streams of length <= 5. Calibration: data 0.2 MB, miss
// rate 0.03%, hit rate ~50%.
func newMdg(size Size) (*Workload, error) {
	if err := sizeOnlySmall("mdg", size); err != nil {
		return nil, err
	}
	const mols = 343
	const rec = 576 // 3 atoms x 3 coords x (pos, vel, force) x 8 B
	return &Workload{
		Name: "mdg", Suite: "PERFECT",
		Description: "Liquid water simulation (molecular dynamics)",
		Input:       "343 molecules, 100 time steps",
		DataBytes:   mols * rec,
		steps:       30,
		run: func(m *Machine, steps int) {
			arena := m.Alloc(mols * rec)
			forces := m.Alloc(mols * rec / 2)
			work := m.Alloc(4 << 10)
			for t := 0; t < steps; t++ {
				for i := 0; i < mols; i++ {
					m.Loop(0)
					m.BlockRun(arena+mem.Addr(i*rec), 144, 4)
					for j := i + 1; j < mols; j += 7 {
						m.Loop(1)
						// Partner molecule: a 144-byte run elsewhere.
						m.BlockRun(arena+mem.Addr(j*rec), 144, 6)
						// Resident pair workspace: the O-O, O-H and H-H
						// distance computations.
						for k := 0; k < 10; k++ {
							m.Load(work + mem.Addr(((j+k*51)%512)*8))
							m.Inst(8)
						}
					}
				}
				// Force reduction and position integration: long
				// sequential sweeps (Table 3: 43% of mdg's hits come
				// from streams longer than 20).
				for r := 0; r < 3; r++ {
					for i := 0; i < mols*rec/2; i += dbl {
						m.Loop(2)
						m.Load(forces + mem.Addr(i))
						m.Store(forces + mem.Addr(i))
						m.Inst(9)
					}
				}
			}
		},
	}, nil
}

// newQcd models the lattice-QCD code: a 12^4 site lattice of SU(3)
// link matrices (~9 MB). Site updates read the site's own links (a
// ~576-byte run) and hopping-term neighbours at the four dimensional
// strides; most compute is on a resident accumulator. Calibration:
// data 9.2 MB, miss rate 0.16%, MPI 0.06%, hit rate ~40-45%, hits 32%
// short / 43% >20.
func newQcd(size Size) (*Workload, error) {
	if err := sizeOnlySmall("qcd", size); err != nil {
		return nil, err
	}
	const l = 12
	sites := l * l * l * l
	const linkRec = 576 // 4 links x 3x3 complex doubles
	return &Workload{
		Name: "qcd", Suite: "PERFECT",
		Description: "Quantum chromodynamics",
		Input:       "12 x 12 x 12 x 12 lattice",
		DataBytes:   uint64(sites * linkRec),
		steps:       3,
		run: func(m *Machine, sweeps int) {
			links := m.Alloc(uint64(sites * linkRec))
			mom := m.Alloc(uint64(sites * linkRec / 2))
			acc := m.Alloc(4 << 10)
			strides := []int{1, l, l * l, l * l * l}
			for s := 0; s < sweeps; s++ {
				for site := 0; site < sites; site++ {
					m.Loop(0)
					// Own links: contiguous run over the site record.
					m.BlockRun(links+mem.Addr(site*linkRec), 128, 3)
					// Hopping terms: one SU(3) link matrix (144 B, a
					// two/three-block run) per dimension. The staple
					// direction — and so the offset into the
					// neighbour's record — varies with the site, which
					// is what keeps these accesses off any constant
					// stride (real staple loops rotate through the
					// mu/nu link pairs).
					for d, st := range strides {
						nb := site + st
						if nb >= sites {
							nb -= sites
						}
						off := mem.Addr(((site + d) & 3) * 144)
						base := links + mem.Addr(nb*linkRec)
						if d < 1 {
							// Full staple: both link matrices of the
							// plaquette — a four-block run.
							m.Load(base + off)
							m.Load(base + off + 64)
							m.Load(base + off + 128)
							m.Load(base + off + 192)
							m.Inst(40)
						} else {
							// Single hopping link: an isolated touch.
							m.Load(base + off)
							m.Inst(24)
						}
					}
					// Resident accumulator compute: the SU(3) matrix
					// multiplies run entirely from registers and the
					// accumulator tile.
					for k := 0; k < 24; k++ {
						m.Load(acc + mem.Addr(((k*8+site%8)%512)*8))
						m.Inst(11)
					}
				}
				// Momentum update: a long sequential sweep per
				// molecular-dynamics trajectory step (the >20 bucket
				// holds 43% of qcd's hits in Table 3).
				for i := 0; i < sites*linkRec/16; i += dbl {
					m.Loop(1)
					m.Load(mom + mem.Addr(i))
					m.Store(mom + mem.Addr(i))
					m.Inst(10)
				}
			}
		},
	}, nil
}

// newTrfd models the two-electron integral transformation: repeated
// passes of matrix products over ~8 MB of packed integrals. Row sweeps
// are very long unit-stride streams (90% of hits from lengths > 20);
// column sweeps walk a constant non-unit stride that only the stride
// scheme catches (hit 50% -> 65%), and the strided misses under
// allocate-on-miss are what blow EB up to 96% unfiltered (11% with
// the filter). Miss rate is tiny (0.05%) because the inner products
// run from a resident workspace.
func newTrfd(size Size) (*Workload, error) {
	if err := sizeOnlySmall("trfd", size); err != nil {
		return nil, err
	}
	const dim = 1000         // transformed matrix dimension
	const ints = 1000 * 1000 // 8 MB of packed integrals
	return &Workload{
		Name: "trfd", Suite: "PERFECT",
		Description: "Quantum mechanics (integral transformation)",
		Input:       "two-electron integral transformation",
		DataBytes:   ints * dbl,
		steps:       2,
		run: func(m *Machine, passes int) {
			xrsiq := m.Alloc(ints * dbl) // packed integral matrix
			work := m.Alloc(16 << 10)    // resident DGEMM tile
			for p := 0; p < passes; p++ {
				// Row pass: long unit-stride sweeps with dominant
				// resident-tile compute between touches.
				for i := 0; i < ints; i += 2 {
					m.Loop(0)
					m.Load(xrsiq + mem.Addr(i*dbl))
					m.Load(work + mem.Addr((i%2048)*8))
					m.Load(work + mem.Addr(((i+512)%2048)*8))
					m.Load(work + mem.Addr(((i+1024)%2048)*8))
					m.Load(work + mem.Addr(((i+96)%2048)*8))
					m.Inst(38)
				}
				// Column pass: constant stride dim*dbl = 8 KB
				// (2^10 words) — non-unit stride territory.
				for col := 0; col < dim; col += 8 {
					for row := 0; row < dim; row++ {
						m.Loop(1)
						m.Load(xrsiq + mem.Addr((row*dim+col)*dbl))
						m.Load(work + mem.Addr((row%2048)*8))
						m.Load(work + mem.Addr(((row+512)%2048)*8))
						m.Load(work + mem.Addr(((row+1024)%2048)*8))
						m.Load(work + mem.Addr(((row+1536)%2048)*8))
						m.Load(work + mem.Addr(((row+256)%2048)*8))
						m.Inst(42)
					}
				}
			}
		},
	}, nil
}
