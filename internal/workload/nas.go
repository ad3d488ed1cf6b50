// NAS benchmark models (Table 1, first eight rows). Each kernel mimics
// the memory behaviour of the real program's inner loops at the
// paper's input sizes; the doc comment on each notes the published
// characteristics it is calibrated against.
package workload

import (
	"fmt"

	"streamsim/internal/mem"
)

const dbl = 8 // bytes per double-precision word

func init() {
	register("embar", newEmbar)
	register("mgrid", newMgrid)
	register("cgm", newCgm)
	register("fftpde", newFftpde)
	register("is", newIS)
	register("appsp", newAppsp)
	register("appbt", newAppbt)
	register("applu", newApplu)
}

// newEmbar models EP (embarrassingly parallel): Gaussian-pair
// generation dominated by register/scratch compute, with results
// streamed sequentially into a ~1 MB table. Calibration targets:
// data set 1.0 MB, D-miss rate 0.28%, MPI 0.10%, stream hit rate ~99%
// at any stream count (one long unit stream), stream lengths almost
// all >20, EB ~8%.
func newEmbar(size Size) (*Workload, error) {
	if err := sizeOnlySmall("embar", size); err != nil {
		return nil, err
	}
	const elems = 128 << 10 // 1 MB of doubles
	return &Workload{
		Name: "embar", Suite: "NAS",
		Description: "Embarrassingly parallel",
		Input:       "2^17 Gaussian pairs",
		DataBytes:   elems * dbl,
		steps:       elems,
		run: func(m *Machine, n int) {
			table := m.Alloc(elems * dbl)
			scratch := m.Alloc(256) // RNG state + Box-Muller temporaries
			for i := 0; i < n; i++ {
				m.Loop(0)
				// ~36 scratch references (always cache-resident) and
				// ~130 instructions of RNG and transcendental compute
				// per generated pair...
				for k := 0; k < 18; k++ {
					m.Load(scratch + mem.Addr((k%12)*16))
					m.Store(scratch + mem.Addr((k%12)*16+8))
					m.Inst(7)
				}
				// ...then one streaming store of the result.
				m.Store(table + mem.Addr(i*dbl))
				m.Inst(6)
			}
		},
	}, nil
}

// newMgrid models the MG multigrid kernel: restriction, smoothing and
// interpolation sweeps over a hierarchy of 3-D grids. Each sweep walks
// six or seven arrays in lockstep — the independent unit-stride lanes
// that make the Figure 3 hit rate saturate around seven streams (the
// paper ties saturation to "the number of unique array references in
// the program loops"). The in-row +/-1 stencil taps share the central
// lane's cache block. Calibration targets: data 1.0 MB (32^3), miss
// rate 0.84%, MPI 0.08%, hit rate ~85-90%, 86% of hits from streams
// longer than 20, EB 30% unfiltered / ~13% filtered. SizeLarge is
// Table 4's 64^3.
func newMgrid(size Size) (*Workload, error) {
	n := 32
	if size == SizeLarge {
		n = 64
	}
	cells := n * n * n
	return &Workload{
		Name: "mgrid", Suite: "NAS",
		Description: "Multigrid kernel",
		Input:       fmt3d(n) + " grid",
		DataBytes:   uint64(4 * cells * dbl),
		steps:       5,
		run: func(m *Machine, sweeps int) {
			rng := m.Rand()
			// Four full-resolution arrays plus per-level coarse grids.
			u := m.Alloc(uint64(cells * dbl))
			v := m.Alloc(uint64(cells * dbl))
			r := m.Alloc(uint64(cells * dbl))
			z := m.Alloc(uint64(cells * dbl))
			u2 := m.Alloc(uint64(cells / 8 * dbl)) // coarse grid
			r2 := m.Alloc(uint64(cells / 8 * dbl))
			coef := m.Alloc(512) // stencil coefficients: resident
			for s := 0; s < sweeps; s++ {
				// Smooth + residual: seven lanes walked in lockstep
				// (u with its +/-1 row taps, v, r, z, and the coarse
				// pair at half rate).
				for c := 1; c < cells-1; c++ {
					m.Loop(0)
					a := mem.Addr(c * dbl)
					m.Load(u + a)
					m.Load(u + a - dbl)
					m.Load(u + a + dbl)
					m.Load(v + a)
					m.Load(z + a)
					m.Store(r + a)
					if c%8 == 0 {
						h := mem.Addr(c / 8 * dbl)
						m.Load(u2 + h)
						m.Store(r2 + h)
					}
					// Stencil weights and the 27-point compute are
					// cache-resident.
					m.Load(coef + mem.Addr((c%8)*8))
					m.Load(coef + mem.Addr(((c+3)%8)*8))
					m.Inst(42)
				}
				// Coarse-level smoothing: short sweeps over the
				// half-resolution grids.
				for c := 1; c < cells/8-1; c++ {
					m.Loop(1)
					h := mem.Addr(c * dbl)
					m.Load(u2 + h)
					m.Load(r2 + h)
					m.Store(u2 + h)
					m.Inst(18)
				}
				// Boundary-face updates and inter-level index fix-ups:
				// short two-block runs at randomly scattered plane
				// offsets — the short-run and isolated component that
				// keeps mgrid's hit rate in the paper's 76-88% band and
				// its EB near 30% (Table 2). Random placement keeps the
				// czone FSM from inventing a stride for them.
				for face := 0; face < 64*n; face++ {
					m.Loop(2)
					row := rng.Intn(cells-16) &^ (n - 1)
					for i := 0; i < 16; i += 2 {
						m.Load(u + mem.Addr((row+i)*dbl))
						m.Inst(10)
					}
				}
			}
		},
	}, nil
}

// newCgm models the CG kernel: sparse matrix-vector products where the
// matrix values and column indices stream sequentially while the
// source-vector gathers are indirect. At the small input (n=1400) the
// 11 KB source vector is cache-resident, so the indirections hit and
// streams perform well — the paper's "surprisingly cgm exhibits good
// stream performance". At Table 4's large input (n=5600) the vector
// outgrows what the cache retains and the irregular gathers drag the
// stream hit rate down (85% -> 51%). Calibration: data 2.9 MB, miss
// rate 3.33%, MPI 1.43%.
func newCgm(size Size) (*Workload, error) {
	n, nnz := 1400, 78148
	if size == SizeLarge {
		n, nnz = 5600, 98148
	}
	return &Workload{
		Name: "cgm", Suite: "NAS",
		Description: "Smallest eigenvalue of a sparse matrix",
		Input:       fmtMat(n, nnz),
		// Matrix values + column indices, the CSR generation workspace
		// (the NAS makea routine keeps a second copy), and the CG
		// vectors — matching Table 1's 2.9 MB for the small input.
		DataBytes: uint64(3*nnz*(dbl+4) + 6*n*dbl),
		steps:     12,
		run: func(m *Machine, cgIters int) {
			a := m.Alloc(uint64(nnz * dbl))
			colidx := m.Alloc(uint64(nnz * 4))
			x := m.Alloc(uint64(n * dbl))
			q := m.Alloc(uint64(n * dbl))
			zvec := m.Alloc(uint64(n * dbl))
			rng := m.Rand()
			perRow := nnz / n
			for it := 0; it < cgIters; it++ {
				// q = A*x: stream a[] and colidx[], gather x[],
				// accumulate in a resident partial-sum slot.
				j := 0
				for row := 0; row < n; row++ {
					for k := 0; k < perRow; k++ {
						m.Loop(0)
						m.Load(colidx + mem.Addr(j*4))
						m.Load(a + mem.Addr(j*dbl))
						// Sparse pattern: random column within the row's
						// neighbourhood (banded-ish with long tails).
						col := rng.Intn(n)
						m.Load(x + mem.Addr(col*dbl))
						m.Load(q + mem.Addr(row*dbl))
						m.Store(q + mem.Addr(row*dbl))
						m.Inst(11)
						j++
					}
				}
				// Vector updates: alpha/beta daxpys over n-vectors.
				for i := 0; i < n; i++ {
					m.Loop(1)
					m.Load(q + mem.Addr(i*dbl))
					m.Load(zvec + mem.Addr(i*dbl))
					m.Store(x + mem.Addr(i*dbl))
					m.Inst(10)
				}
			}
		},
	}, nil
}

// newFftpde models the 3-D FFT PDE solver: per-dimension FFT passes
// over a 64^3 complex grid. The x-pass is unit stride; the y and z
// passes walk columns with strides of 2^8 and 2^14 words — the large
// non-unit strides that cripple ordinary streams (hit rate 26%) and
// that the czone scheme recovers (71%), with czone sizes of 16-23 bits
// effective (Figure 9). Calibration: data 14.7 MB, miss rate 3.08%,
// MPI 0.50%, EB 158% unfiltered.
func newFftpde(size Size) (*Workload, error) {
	if err := sizeOnlySmall("fftpde", size); err != nil {
		return nil, err
	}
	const n = 64
	const cplx = 16 // complex double
	cells := n * n * n
	return &Workload{
		Name: "fftpde", Suite: "NAS",
		Description: "3-D PDE solver using FFT",
		Input:       fmt3d(n) + " complex array",
		DataBytes:   uint64(3 * cells * cplx),
		steps:       2,
		run: func(m *Machine, steps int) {
			grid := m.Alloc(uint64(cells * cplx))
			chk := m.Alloc(uint64(cells * cplx)) // evolved copy
			work := m.Alloc(uint64(n * cplx))    // per-column FFT workspace
			for t := 0; t < steps; t++ {
				// Evolve + copy: unit-stride sweep of both arrays.
				for i := 0; i < cells; i++ {
					m.Loop(0)
					m.Load(grid + mem.Addr(i*cplx))
					m.Store(chk + mem.Addr(i*cplx))
					m.Inst(10)
				}
				// x-pass: unit-stride butterflies line by line; twiddle
				// factors and bit-reversal tables are resident.
				for line := 0; line < n*n; line++ {
					base := grid + mem.Addr(line*n*cplx)
					for i := 0; i < n; i++ {
						m.Loop(1)
						m.Load(base + mem.Addr(i*cplx))
						m.Load(work + mem.Addr((i%n)*cplx))
						m.Load(work + mem.Addr(((i*2)%n)*cplx))
						m.Store(base + mem.Addr(i*cplx))
						m.Inst(16)
					}
				}
				// y-pass: columns at stride n*cplx = 1 KB (2^8 words).
				m.fftColumnPass(grid, n, n*cplx, work)
				// z-pass: columns at stride n*n*cplx = 64 KB (2^14 words).
				m.fftColumnPass(grid, n, n*n*cplx, work)
			}
		},
	}, nil
}

// fftColumnPass walks every column of a cube along one dimension with
// the given byte stride between consecutive column elements.
func (m *Machine) fftColumnPass(grid mem.Addr, n, strideBytes int, work mem.Addr) {
	const cplx = 16
	for col := 0; col < n*n; col++ {
		// Column origin: enumerate the plane orthogonal to the pass.
		base := grid
		if strideBytes == n*cplx { // y-pass: origin spans (x, z)
			x, z := col%n, col/n
			base += mem.Addr((z*n*n + x) * cplx)
		} else { // z-pass: origin spans (x, y)
			base += mem.Addr(col * cplx)
		}
		for i := 0; i < n; i++ {
			m.Loop(2)
			a := base + mem.Addr(i*strideBytes)
			m.Load(a)
			m.Load(work + mem.Addr((i%n)*cplx))
			m.Load(work + mem.Addr(((i*2)%n)*cplx))
			m.Store(a)
			m.Inst(16)
		}
	}
}

// newIS models the integer-sort (bucket sort) kernel: sequential key
// reads feeding a cache-resident count table, then a ranking phase
// that scatters each key to its sorted position — isolated misses the
// unit-stride filter eliminates (EB 48% -> 7% with almost no hit-rate
// loss). Calibration: data 0.8 MB, miss rate 0.53%, MPI 0.20%, hit
// rate ~55%, hits split ~41% short / 59% long (Table 3).
func newIS(size Size) (*Workload, error) {
	if err := sizeOnlySmall("is", size); err != nil {
		return nil, err
	}
	const keys = 64 << 10
	const maxKey = 2048
	return &Workload{
		Name: "is", Suite: "NAS",
		Description: "Integer sort",
		Input:       "64K integers, maxkey = 2048",
		DataBytes:   keys*4 + keys*4 + maxKey*4,
		steps:       10,
		run: func(m *Machine, passes int) {
			keyArr := m.Alloc(keys * 4)
			rank := m.Alloc(keys * 4)
			count := m.Alloc(maxKey * 4) // 8 KB: cache resident
			rng := m.Rand()
			for p := 0; p < passes; p++ {
				// Counting phase: stream keys, bump histogram (the
				// histogram and its bookkeeping are cache-resident).
				for i := 0; i < keys; i++ {
					m.Loop(0)
					m.Load(keyArr + mem.Addr(i*4))
					k := rng.Intn(maxKey)
					m.Load(count + mem.Addr(k*4))
					m.Store(count + mem.Addr(k*4))
					m.Inst(12)
				}
				// Prefix sum over the (resident) histogram.
				for k := 0; k < maxKey; k++ {
					m.Loop(1)
					m.Load(count + mem.Addr(k*4))
					m.Store(count + mem.Addr(k*4))
					m.Inst(4)
				}
				// Ranking: stream keys again; runs of equal-valued keys
				// land in consecutive sorted slots, so the output side
				// is bursts of contiguous stores at scattered bucket
				// positions — the short-stream component behind IS's
				// 41%-short length distribution (Table 3).
				for i := 0; i < keys; i++ {
					m.Loop(2)
					m.Load(keyArr + mem.Addr(i*4))
					m.Load(count + mem.Addr(rng.Intn(maxKey)*4))
					m.Inst(9)
					if i%24 == 0 {
						pos := rng.Intn(keys - 64)
						for b := 0; b < 48; b++ { // 192 B: 3-4 blocks
							m.Store(rank + mem.Addr((pos+b)*4))
							m.Inst(3)
						}
					}
				}
			}
		},
	}, nil
}

// newAppsp models the SP pentadiagonal ADI solver: per time step a
// unit-stride x-sweep, then y and z sweeps whose five-variable cell
// records are walked at strides of 5n and 5n^2 doubles. The strided
// sweeps defeat unit-only streams (hit 33% at the small input) and are
// recovered by stride detection (65%); Figure 9 shows a large czone
// suffices. Calibration: data 2.2 MB (24^3), miss rate 2.24%,
// MPI 0.38%, EB 134% unfiltered / 45% filtered.
func newAppsp(size Size) (*Workload, error) {
	// Table 4 compares 12^3 vs 24^3 (Table 1 traces the larger input;
	// the Table 1 harness therefore uses SizeLarge for this benchmark).
	n := 12
	if size == SizeLarge {
		n = 24
	}
	return newADI("appsp", "Fluid dynamics (scalar pentadiagonal ADI)", n, 0.50, 30, false)
}

// newAppbt models the BT block-tridiagonal solver: 5x5 Jacobian blocks
// (200-byte dense runs) walked cell by cell. Along x the blocks are
// contiguous (long streams); along y/z each 200-byte run is isolated
// at a large stride, producing the paper's many short streams — 63% of
// hits from lengths <= 5, which is why the filter costs appbt hit rate
// (65% -> 45%). Calibration: data 4.2 MB, miss 1.88%, MPI 0.45%.
func newAppbt(size Size) (*Workload, error) {
	n := 12
	if size == SizeLarge {
		n = 24
	}
	cells := n * n * n
	const jacBytes = 200 // one 5x5 Jacobian block of doubles (not a cache-geometry size)
	return &Workload{
		Name: "appbt", Suite: "NAS",
		Description: "Fluid dynamics (block tridiagonal ADI)",
		Input:       fmt3d(n) + " grid",
		DataBytes:   uint64(3 * cells * jacBytes),
		steps:       18,
		run: func(m *Machine, steps int) {
			jacA := m.Alloc(uint64(cells * jacBytes))
			jacB := m.Alloc(uint64(cells * jacBytes))
			jacC := m.Alloc(uint64(cells * jacBytes))
			rhs := m.Alloc(uint64(cells * 5 * dbl))
			lhs := m.Alloc(4 << 10) // factored 5x5 pivot tile: resident
			rng := m.Rand()
			for t := 0; t < steps; t++ {
				// x-solves: contiguous block runs, long streams; the
				// 5x5 Gaussian elimination itself runs on a resident
				// pivot tile.
				for c := 0; c < cells; c++ {
					m.Loop(0)
					m.BlockRun(jacA+mem.Addr(c*jacBytes), jacBytes, 3)
					for k := 0; k < 10; k++ {
						m.Load(lhs + mem.Addr(((c+k*37)%512)*8))
						m.Inst(8)
					}
					m.Store(rhs + mem.Addr(c*5*dbl))
					m.Inst(10)
				}
				// y- and z-solves: the same 200-byte Jacobian blocks in
				// transposed order — short runs at large strides, the
				// source of appbt's 63%-short length distribution. The
				// forward/back substitution interleaves the three
				// Jacobian factors, so consecutive run starts do not
				// form a constant stride (the paper finds appbt gains
				// nothing from stride detection).
				for k := 0; k < n; k++ {
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							m.Loop(1)
							c := (k*n+j)*n + i
							jac := jacB
							if rng.Intn(2) == 1 {
								jac = jacC
							}
							m.BlockRun(jac+mem.Addr(c*jacBytes), jacBytes, 3)
							for w := 0; w < 10; w++ {
								m.Load(lhs + mem.Addr(((c+w*41)%512)*8))
								m.Inst(8)
							}
							m.Load(rhs + mem.Addr(c*5*dbl))
							m.Inst(12)
						}
					}
				}
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						for k := 0; k < n; k++ {
							m.Loop(2)
							c := (k*n+j)*n + i
							jac := jacC
							if rng.Intn(2) == 1 {
								jac = jacB
							}
							m.BlockRun(jac+mem.Addr(c*jacBytes), jacBytes, 3)
							for w := 0; w < 10; w++ {
								m.Load(lhs + mem.Addr(((c+w*43)%512)*8))
								m.Inst(8)
							}
							m.Load(rhs + mem.Addr(c*5*dbl))
							m.Inst(12)
						}
					}
				}
			}
		},
	}, nil
}

// newApplu models the LU SSOR solver: like appbt but dominated by
// wavefront sweeps that stay unit stride, so streams do well and
// improve with the input (62% at 12^3 -> 73% at 24^3, Table 4).
// Calibration: data 5.4 MB, miss rate 1.26%, MPI 0.18%.
func newApplu(size Size) (*Workload, error) {
	n := 12
	if size == SizeLarge {
		n = 24
	}
	// scramble=true: SSOR's wavefront ordering keeps the y/z cell
	// records off any constant stride, so applu gains little from
	// stride detection (it is absent from the paper's Figure 8 list).
	return newADI("applu", "Fluid dynamics (SSOR)", n, 0.15, 45, true)
}

// newADI builds the shared ADI/SSOR skeleton used by appsp and applu:
// per sweep over an n^3 grid of five-variable cells, a unit-stride
// x phase and strided y/z phases; stridedFrac sets how much of the
// work runs in the strided directions. With scramble set, the y/z cell
// addresses are jittered so they never verify as a constant stride
// (SSOR wavefronts versus SP's regular line sweeps).
func newADI(name, desc string, n int, stridedFrac float64, steps int, scramble bool) (*Workload, error) {
	cells := n * n * n
	rec := 5 * dbl // five solution variables per cell
	return &Workload{
		Name: name, Suite: "NAS",
		Description: desc,
		Input:       fmt3d(n) + " grid",
		DataBytes:   uint64(4 * cells * rec),
		steps:       steps,
		run: func(m *Machine, nstep int) {
			u := m.Alloc(uint64(cells * rec))
			rsd := m.Alloc(uint64(cells * rec))
			flux := m.Alloc(uint64(cells * rec))
			tile := m.Alloc(4 << 10) // 5x5 system solve scratch: resident
			rng := m.Rand()
			ySteps := int(stridedFrac * float64(n))
			for t := 0; t < nstep; t++ {
				// x-sweep: unit stride over u and rsd, with the 5x5
				// per-cell system solve running from a resident tile.
				for c := 0; c < cells; c++ {
					m.Loop(0)
					a := mem.Addr(c * rec)
					for v := 0; v < 5; v++ {
						m.Load(u + a + mem.Addr(v*dbl))
						m.Load(tile + mem.Addr(((c+v)%256)*8))
						m.Load(tile + mem.Addr(((c+v+64)%256)*8))
						m.Inst(11)
					}
					m.Store(rsd + a)
					m.Inst(8)
				}
				// y/z sweeps: cell records at strides 5n and 5n^2
				// doubles. Only stridedFrac of the lines are walked per
				// step (the solvers alternate directions).
				for j := 0; j < ySteps; j++ {
					for k := 0; k < n; k++ {
						for i := 0; i < n; i++ {
							m.Loop(1)
							// y direction: stride n cells.
							cy := (k*n+i)*n + j
							a := mem.Addr(cy * rec)
							if scramble {
								a += mem.Addr(rng.Intn(16) * dbl)
							}
							m.Load(u + a)
							m.Load(flux + a)
							m.Load(tile + mem.Addr((cy%256)*8))
							m.Load(tile + mem.Addr(((cy+32)%256)*8))
							m.Store(rsd + a)
							m.Inst(24)
						}
					}
					for k := 0; k < n; k++ {
						for i := 0; i < n; i++ {
							m.Loop(2)
							// z direction: stride n^2 cells.
							cz := (i*n+k)*n + j
							a := mem.Addr(cz * rec)
							if scramble {
								a += mem.Addr(rng.Intn(16) * dbl)
							}
							m.Load(u + a)
							m.Load(tile + mem.Addr((cz%256)*8))
							m.Store(rsd + a)
							m.Inst(20)
						}
					}
				}
			}
		},
	}, nil
}

// fmt3d renders "n x n x n".
func fmt3d(n int) string {
	return fmt.Sprintf("%d x %d x %d", n, n, n)
}

// fmtMat renders the sparse-matrix input description.
func fmtMat(n, nnz int) string {
	return fmt.Sprintf("%d x %d matrix, %d non-zeros", n, n, nnz)
}
