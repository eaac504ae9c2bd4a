//! The local Hamiltonian on the finite-difference mesh.
//!
//! `H(t) = −½∇² − i A(t) ∂z + (V_loc + ½A²)` in the velocity gauge, with
//! the Laplacian and z-gradient discretised by 8th-order central
//! differences on the periodic mesh. These are the "simple data
//! parallelism" kernels of LFD (paper §IV-D) — everything here is a mesh
//! sweep; nothing here is BLAS. The unit of work is one x-slab of the
//! output (`par_chunks_mut`), spread over the rayon pool's threads; a slab
//! writes only its own rows, so the result is the same at any thread
//! count.
//!
//! There is one stencil body (`Stencil::block`). It accumulates a block
//! of orbitals in registers across all 33 taps, reading every tap row
//! without a bounds check of its own (the slab's one range assertion
//! covers them), and stores once as its const store mode says: `H·ψ`
//! itself, or a Taylor term `t` kept, added into ψ, or both
//! (`store`). The body is compiled for the three rungs of the workspace's
//! one ladder, `avx512f → avx2 → portable` ([`Rung`]), and each (element
//! width, store mode) runs on the fastest rung the CPU has up to its top.
//! DESIGN.md, "Mesh kernels", gives the loop nest, the operation-order
//! contract that keeps every store mode on every rung bit-identical to
//! the scalar loop it replaced, the measurements behind the rung choice,
//! and the per-point operation and byte counts.

use crate::mesh::Mesh3;
use dcmesh_numerics::{Complex, Real, Rung};
use rayon::prelude::*;

/// 8th-order central-difference coefficients for the second derivative:
/// `f''(0) ≈ Σ_s C2[|s|]·f(s·h) / h²` for `s = −4..4`.
pub const C2: [f64; 5] = [
    -205.0 / 72.0,
    8.0 / 5.0,
    -1.0 / 5.0,
    8.0 / 315.0,
    -1.0 / 560.0,
];

/// 8th-order central-difference coefficients for the first derivative:
/// `f'(0) ≈ Σ_{s>0} C1[s]·(f(s·h) − f(−s·h)) / h`.
pub const C1: [f64; 5] = [0.0, 4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0];

/// Stencil radius.
pub const RADIUS: usize = 4;

/// Orbitals per register block: 16 complex are 4 ymm of `f32` or 8 ymm of
/// `f64`, which leaves registers for the tap loads on both.
const BLOCK: usize = 16;

/// The wrap table of index `i` on a periodic axis of length `n`: entry
/// `RADIUS + s` is `(i + s) mod n` for `|s| ≤ RADIUS`, found by compare
/// and subtract instead of a division per neighbour. The sweeps build
/// one per x-slab, one per y-row and one per point along z, on the stack.
#[inline(always)]
pub(crate) fn wrap_table(i: usize, n: usize) -> [usize; 2 * RADIUS + 1] {
    assert!(i < n && n >= RADIUS, "axis shorter than the stencil radius");
    let mut table = [i; 2 * RADIUS + 1];
    for s in 1..=RADIUS {
        table[RADIUS + s] = if i + s >= n { i + s - n } else { i + s };
        table[RADIUS - s] = if i >= s { i - s } else { i + n - s };
    }
    table
}

/// Store modes of [`Stencil::block`], the bits of its one `u8` const
/// parameter. [`store::PLAIN`] writes `H·src`; every other mode forms the
/// Taylor term `t = (−i·c)·H·src` in registers and does with it what its
/// bits say.
pub(crate) mod store {
    /// `out = H·src`.
    pub const PLAIN: u8 = 0;
    /// `out = t`.
    pub const KEEP: u8 = 1;
    /// `ψ += t`.
    pub const ADD: u8 = 2;
    /// With [`ADD`]: `ψ = (ψ + src) + t`, the centre row of `src` added
    /// first — the ψ update the sweep that produced `src` skipped.
    pub const CATCH_UP: u8 = 4;
}

/// The rung a sweep over `T` with store mode `STORE` runs on: the widest
/// available one at or below the fastest for that pair. That is `avx512f`
/// for every pair but the `f32` Taylor stores: under `avx512f` LLVM splits
/// their `(re, im) → (im, −re)` swap into masked loads and shuffles and
/// they run 1.7–2.1× slower than under AVX2, so they top out one rung
/// down. (The `f64` Taylor stores gain 1.5–1.7× from `avx512f`, the plain
/// stores 1.2–1.8×; DESIGN.md, "Mesh kernels".)
fn rung_for<T: Real, const STORE: u8>() -> Rung {
    let f32_taylor = STORE != store::PLAIN && core::mem::size_of::<T>() == 4;
    Rung::at_most(if f32_taylor { Rung::Avx2 } else { Rung::Avx512f })
}

/// The rungs `apply_h`/`apply_kinetic` (plain store) and the Taylor
/// sweeps of `taylor_propagate` over `T` dispatch to on this CPU, in that
/// order.
pub fn dispatched_rungs<T: Real>() -> [Rung; 2] {
    [rung_for::<T, { store::PLAIN }>(), rung_for::<T, { store::KEEP | store::ADD }>()]
}

/// One configured sweep of `H(t)` over an `N_grid × n_orb` state.
struct Stencil<'a, T> {
    nx: usize,
    ny: usize,
    nz: usize,
    n_orb: usize,
    /// Local potential; `None` is the bare kinetic operator.
    vloc: Option<&'a [T]>,
    half_a2: T,
    /// The three centre taps of the Laplacian.
    lap0: T,
    /// −½ ∇²: `C2` scaled by −½/h².
    lap_c: [T; RADIUS + 1],
    /// −iA ∂z: `C1` scaled by A/h (the −i is applied per element);
    /// `None` when A = 0.
    grad_c: Option<[T; RADIUS + 1]>,
    /// `dt/n` of the Taylor stores.
    taylor_c: T,
}

impl<'a, T: Real> Stencil<'a, T> {
    fn new(
        mesh: &Mesh3,
        n_orb: usize,
        vloc: Option<&'a [T]>,
        a_total: f64,
        taylor_c: T,
    ) -> Self {
        assert!(
            mesh.nx > 2 * RADIUS && mesh.ny > 2 * RADIUS && mesh.nz > 2 * RADIUS,
            "mesh smaller than twice the stencil radius"
        );
        if let Some(v) = vloc {
            assert_eq!(v.len(), mesh.len(), "vloc shape mismatch");
        }
        let h2_inv = 1.0 / (mesh.spacing * mesh.spacing);
        let h_inv = 1.0 / mesh.spacing;
        let lap_c: [T; RADIUS + 1] = core::array::from_fn(|s| T::from_f64(-0.5 * C2[s] * h2_inv));
        Stencil {
            nx: mesh.nx,
            ny: mesh.ny,
            nz: mesh.nz,
            n_orb,
            vloc,
            half_a2: T::from_f64(0.5 * a_total * a_total),
            lap0: lap_c[0] * T::from_f64(3.0),
            lap_c,
            grad_c: (a_total != 0.0)
                .then(|| core::array::from_fn(|s| T::from_f64(C1[s] * a_total * h_inv))),
            taylor_c,
        }
    }

    /// Sweeps `src` one x-slab at a time on `rung`, storing as `STORE`
    /// says: into `out` where it keeps a result, into `psi` where it adds
    /// one. A slice the mode does not touch may be empty.
    fn run<const STORE: u8>(
        &self,
        rung: Rung,
        src: &[Complex<T>],
        out: &mut [Complex<T>],
        psi: &mut [Complex<T>],
    ) {
        assert!(rung.available(), "{} is not available on this CPU", rung.name());
        let slab = self.ny * self.nz * self.n_orb; // one x-plane of the state
        assert_eq!(src.len(), self.nx * slab, "psi shape mismatch");
        let keeps = STORE == store::PLAIN || STORE & store::KEEP != 0;
        let adds = STORE & store::ADD != 0;
        if keeps {
            assert_eq!(out.len(), src.len(), "out shape mismatch");
        }
        if adds {
            assert_eq!(psi.len(), src.len(), "psi shape mismatch");
        }
        match (keeps, adds) {
            (true, true) => out
                .par_chunks_mut(slab)
                .zip(psi.par_chunks_mut(slab))
                .enumerate()
                .for_each(|(ix, (o, p))| self.slab::<STORE>(rung, ix, src, o, p)),
            (true, false) => out
                .par_chunks_mut(slab)
                .enumerate()
                .for_each(|(ix, o)| self.slab::<STORE>(rung, ix, src, o, &mut [])),
            (false, true) => psi
                .par_chunks_mut(slab)
                .enumerate()
                .for_each(|(ix, p)| self.slab::<STORE>(rung, ix, src, &mut [], p)),
            (false, false) => unreachable!("every store mode keeps or adds"),
        }
    }

    /// One x-slab on `rung`'s instantiation.
    fn slab<const STORE: u8>(
        &self,
        rung: Rung,
        ix: usize,
        src: &[Complex<T>],
        out: &mut [Complex<T>],
        psi: &mut [Complex<T>],
    ) {
        #[cfg(target_arch = "x86_64")]
        match rung {
            // SAFETY: `run` asserted `rung.available()`, which detected
            // the features each wrapper is compiled for.
            Rung::Avx512f => return unsafe { self.slab_avx512::<STORE>(ix, src, out, psi) },
            Rung::Avx2 => return unsafe { self.slab_avx2::<STORE>(ix, src, out, psi) },
            Rung::Portable => {}
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = rung; // `available` admits only `Portable` here
        self.slab_body::<STORE>(ix, src, out, psi)
    }

    /// [`Self::slab_body`] compiled for AVX-512F. Same source, same
    /// operation order, no contraction (Rust never fuses a separate `*`
    /// and `+`), hence the same bits as every other rung.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx2,fma")]
    unsafe fn slab_avx512<const STORE: u8>(
        &self,
        ix: usize,
        src: &[Complex<T>],
        out: &mut [Complex<T>],
        psi: &mut [Complex<T>],
    ) {
        self.slab_body::<STORE>(ix, src, out, psi)
    }

    /// [`Self::slab_body`] compiled for AVX2, as [`Self::slab_avx512`].
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn slab_avx2<const STORE: u8>(
        &self,
        ix: usize,
        src: &[Complex<T>],
        out: &mut [Complex<T>],
        psi: &mut [Complex<T>],
    ) {
        self.slab_body::<STORE>(ix, src, out, psi)
    }

    #[inline(always)]
    fn slab_body<const STORE: u8>(
        &self,
        ix: usize,
        src: &[Complex<T>],
        out: &mut [Complex<T>],
        psi: &mut [Complex<T>],
    ) {
        let (ny, nz, n_orb) = (self.ny, self.nz, self.n_orb);
        let plane = ny * nz;
        // The slab's one range check of `src`, which `block` relies on
        // for every tap row: the rows start at `g·n_orb` with
        // `g < nx·ny·nz`, because the wrap tables below only return
        // in-range indices.
        assert_eq!(src.len(), self.nx * plane * n_orb, "src shape mismatch");
        let xw = wrap_table(ix, self.nx);
        for iy in 0..ny {
            let yw = wrap_table(iy, ny);
            for iz in 0..nz {
                let zw = wrap_table(iz, nz);
                let g = ix * plane + iy * nz + iz;
                // Row starts of the 24 off-centre taps: per distance
                // s = 1..4, {x+, x−, y+, y−, z+, z−}.
                let mut taps = [[0usize; 6]; RADIUS];
                for (i, t) in taps.iter_mut().enumerate() {
                    let (up, down) = (RADIUS + i + 1, RADIUS - i - 1);
                    *t = [
                        xw[up] * plane + iy * nz + iz,
                        xw[down] * plane + iy * nz + iz,
                        ix * plane + yw[up] * nz + iz,
                        ix * plane + yw[down] * nz + iz,
                        ix * plane + iy * nz + zw[up],
                        ix * plane + iy * nz + zw[down],
                    ]
                    .map(|gg| gg * n_orb);
                }
                // Centre coefficient: potential + ½A² + 3·C2[0] Laplacian tap.
                let diag = self.vloc.map_or(self.half_a2, |v| v[g] + self.half_a2) + self.lap0;
                let row = (iy * nz + iz) * n_orb;
                let out_row = if out.is_empty() { &mut [][..] } else { &mut out[row..row + n_orb] };
                let psi_row = if psi.is_empty() { &mut [][..] } else { &mut psi[row..row + n_orb] };
                let centre = g * n_orb;
                let mut o = 0;
                while o + BLOCK <= n_orb {
                    self.block::<BLOCK, STORE>(src, centre, &taps, diag, o, out_row, psi_row);
                    o += BLOCK;
                }
                while o < n_orb {
                    self.block::<1, STORE>(src, centre, &taps, diag, o, out_row, psi_row);
                    o += 1;
                }
            }
        }
    }

    /// The stencil: `W` orbitals of one grid point, accumulated in
    /// registers and stored once as `STORE` says. The per-element
    /// operation order — centre, then s = 1..4 × {x+, x−, y+, y−, z+, z−},
    /// then the gradient s = 1..4, each a separate multiply and add — is
    /// the contract that keeps every instantiation bit-identical.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn block<const W: usize, const STORE: u8>(
        &self,
        src: &[Complex<T>],
        centre: usize,
        taps: &[[usize; 6]; RADIUS],
        diag: T,
        o: usize,
        out_row: &mut [Complex<T>],
        psi_row: &mut [Complex<T>],
    ) {
        debug_assert!(o + W <= self.n_orb);
        let row = |start: usize| -> &[Complex<T>; W] {
            debug_assert!(start + o + W <= src.len());
            // SAFETY: `slab_body` asserted `src.len() == nx·ny·nz·n_orb`;
            // `start` is `g·n_orb` for a grid index `g < nx·ny·nz` and
            // `o + W ≤ n_orb`, so the `W` elements lie inside `src`.
            unsafe { &*src.as_ptr().add(start + o).cast::<[Complex<T>; W]>() }
        };
        let c = row(centre);
        let mut acc = [Complex::<T>::zero(); W];
        for i in 0..W {
            acc[i] = c[i].scale(diag);
        }
        for (s, neighbours) in taps.iter().enumerate() {
            let k = self.lap_c[s + 1];
            for &n in neighbours {
                let r = row(n);
                for i in 0..W {
                    acc[i] += r[i].scale(k);
                }
            }
        }
        // −iA ∂z: antisymmetric z taps, multiplied by −i.
        if let Some(grad_c) = &self.grad_c {
            for (s, neighbours) in taps.iter().enumerate() {
                let k = grad_c[s + 1];
                let (plus, minus) = (row(neighbours[4]), row(neighbours[5]));
                for i in 0..W {
                    let d = (plus[i] - minus[i]).scale(k);
                    // −i·d = (d.im, −d.re)
                    acc[i] += Complex { re: d.im, im: -d.re };
                }
            }
        }
        if STORE == store::PLAIN {
            out_row[o..o + W].copy_from_slice(&acc);
            return;
        }
        // −i·c·h = c·(h.im, −h.re)
        let k = self.taylor_c;
        let t: [Complex<T>; W] =
            core::array::from_fn(|i| Complex { re: acc[i].im * k, im: -(acc[i].re * k) });
        if STORE & store::KEEP != 0 {
            out_row[o..o + W].copy_from_slice(&t);
        }
        if STORE & store::ADD != 0 {
            let psi = &mut psi_row[o..o + W];
            for i in 0..W {
                let p = if STORE & store::CATCH_UP != 0 { psi[i] + c[i] } else { psi[i] };
                psi[i] = p + t[i];
            }
        }
    }
}

/// Applies `out = H(t)·ψ` for the whole orbital set.
///
/// * `psi`, `out`: row-major `N_grid × n_orb`.
/// * `vloc`: local potential, length `N_grid`.
/// * `a_total`: total vector potential (external + induced) at `t`.
pub fn apply_h<T: Real>(
    mesh: &Mesh3,
    n_orb: usize,
    vloc: &[T],
    a_total: f64,
    psi: &[Complex<T>],
    out: &mut [Complex<T>],
) {
    Stencil::new(mesh, n_orb, Some(vloc), a_total, T::ZERO).run::<{ store::PLAIN }>(
        rung_for::<T, { store::PLAIN }>(),
        psi,
        out,
        &mut [],
    );
}

/// Applies only the kinetic operator `out = −½∇²·ψ` (used by
/// `calc_energy`).
pub fn apply_kinetic<T: Real>(
    mesh: &Mesh3,
    n_orb: usize,
    psi: &[Complex<T>],
    out: &mut [Complex<T>],
) {
    Stencil::new(mesh, n_orb, None, 0.0, T::ZERO).run::<{ store::PLAIN }>(
        rung_for::<T, { store::PLAIN }>(),
        psi,
        out,
        &mut [],
    );
}

/// One order of the Taylor propagator, fused into the stencil's store:
/// `t = (−i·c)·H(t)·src`, kept in `next` and/or added to `psi` as the
/// store mode `STORE` says.
#[allow(clippy::too_many_arguments)]
pub(crate) fn taylor_term<const STORE: u8, T: Real>(
    mesh: &Mesh3,
    n_orb: usize,
    vloc: &[T],
    a_total: f64,
    c: T,
    src: &[Complex<T>],
    next: &mut [Complex<T>],
    psi: &mut [Complex<T>],
) {
    debug_assert!(STORE != store::PLAIN);
    Stencil::new(mesh, n_orb, Some(vloc), a_total, c).run::<STORE>(
        rung_for::<T, STORE>(),
        src,
        next,
        psi,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_numerics::C64;

    /// The scalar loop the register-blocked kernel replaced, kept as the
    /// bit-level reference: one read-modify-write of the output row per
    /// tap, `Mesh3::wrap` per neighbour.
    fn apply_h_reference<T: Real>(
        mesh: &Mesh3,
        n_orb: usize,
        vloc: &[T],
        a_total: f64,
        psi: &[Complex<T>],
        out: &mut [Complex<T>],
    ) {
        let h2_inv = 1.0 / (mesh.spacing * mesh.spacing);
        let h_inv = 1.0 / mesh.spacing;
        let half_a2 = T::from_f64(0.5 * a_total * a_total);
        let lap_c: [T; 5] = core::array::from_fn(|s| T::from_f64(-0.5 * C2[s] * h2_inv));
        let grad_c: [T; 5] = core::array::from_fn(|s| T::from_f64(C1[s] * a_total * h_inv));
        let (nx, ny, nz) = (mesh.nx, mesh.ny, mesh.nz);
        for g in 0..mesh.len() {
            let (ix, iy, iz) = mesh.coords(g);
            let at = |dx: isize, dy: isize, dz: isize| {
                mesh.index(Mesh3::wrap(ix, dx, nx), Mesh3::wrap(iy, dy, ny), Mesh3::wrap(iz, dz, nz))
            };
            let row = &mut out[g * n_orb..(g + 1) * n_orb];
            let diag = vloc[g] + half_a2;
            let lap0 = lap_c[0] * T::from_f64(3.0);
            for (o, r) in row.iter_mut().enumerate() {
                *r = psi[g * n_orb + o].scale(diag + lap0);
            }
            for s in 1..=RADIUS as isize {
                let neighbours =
                    [at(s, 0, 0), at(-s, 0, 0), at(0, s, 0), at(0, -s, 0), at(0, 0, s), at(0, 0, -s)];
                for gg in neighbours {
                    for (o, r) in row.iter_mut().enumerate() {
                        *r += psi[gg * n_orb + o].scale(lap_c[s as usize]);
                    }
                }
            }
            if a_total != 0.0 {
                for s in 1..=RADIUS as isize {
                    let (gp, gm) = (at(0, 0, s), at(0, 0, -s));
                    for (o, r) in row.iter_mut().enumerate() {
                        let d = (psi[gp * n_orb + o] - psi[gm * n_orb + o]).scale(grad_c[s as usize]);
                        *r += Complex { re: d.im, im: -d.re };
                    }
                }
            }
        }
    }

    fn random_state<T: Real>(len: usize, seed: u64) -> Vec<Complex<T>> {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            T::from_f64((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        };
        (0..len).map(|_| Complex { re: next(), im: next() }).collect()
    }

    fn assert_same_bits<T: Real>(got: &[Complex<T>], want: &[Complex<T>], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_f64().to_bits() == w.re.to_f64().to_bits()
                    && g.im.to_f64().to_bits() == w.im.to_f64().to_bits(),
                "{what}: element {i} is {g:?}, reference {w:?}"
            );
        }
    }

    /// 9³ is the smallest legal mesh (every tap wraps); 10×12×14 has three
    /// distinct axis lengths.
    const TEST_MESHES: [Mesh3; 2] = [
        Mesh3 { nx: 9, ny: 9, nz: 9, spacing: 0.6 },
        Mesh3 { nx: 10, ny: 12, nz: 14, spacing: 0.5 },
    ];
    /// Below, at and above the register block, and a multiple of it.
    const TEST_ORBITALS: [usize; 6] = [1, 3, 15, 16, 17, 96];

    /// Runs `f` with `threads` as the rayon thread count, checked.
    fn under_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        pool.install(|| {
            assert_eq!(rayon::current_num_threads(), threads);
            f()
        })
    }

    /// Every store mode with its name.
    const STORES: [(u8, &str); 6] = [
        (store::PLAIN, "plain"),
        (store::KEEP, "keep"),
        (store::KEEP | store::ADD, "keep+add"),
        (store::KEEP | store::ADD | store::CATCH_UP, "keep+catch-up"),
        (store::ADD, "add"),
        (store::ADD | store::CATCH_UP, "catch-up"),
    ];

    /// `st.run` with the store mode as a value.
    fn sweep<T: Real>(
        st: &Stencil<T>,
        mode: u8,
        rung: Rung,
        src: &[Complex<T>],
        out: &mut [Complex<T>],
        psi: &mut [Complex<T>],
    ) {
        use store::{ADD, CATCH_UP, KEEP, PLAIN};
        match mode {
            PLAIN => st.run::<PLAIN>(rung, src, out, psi),
            KEEP => st.run::<KEEP>(rung, src, out, psi),
            m if m == KEEP | ADD => st.run::<{ KEEP | ADD }>(rung, src, out, psi),
            m if m == KEEP | ADD | CATCH_UP => st.run::<{ KEEP | ADD | CATCH_UP }>(rung, src, out, psi),
            ADD => st.run::<ADD>(rung, src, out, psi),
            m if m == ADD | CATCH_UP => st.run::<{ ADD | CATCH_UP }>(rung, src, out, psi),
            _ => unreachable!("store mode {mode}"),
        }
    }

    /// What store mode `mode` must leave in `out` and ψ, from the scalar
    /// loop's `H·src`, written out one element at a time.
    fn expected<T: Real>(
        mode: u8,
        h: &[Complex<T>],
        src: &[Complex<T>],
        out0: &[Complex<T>],
        psi0: &[Complex<T>],
        c: T,
    ) -> (Vec<Complex<T>>, Vec<Complex<T>>) {
        if mode == store::PLAIN {
            return (h.to_vec(), psi0.to_vec());
        }
        let (mut out, mut psi) = (out0.to_vec(), psi0.to_vec());
        for i in 0..h.len() {
            let t = Complex { re: h[i].im * c, im: -(h[i].re * c) };
            if mode & store::KEEP != 0 {
                out[i] = t;
            }
            if mode & store::ADD != 0 {
                if mode & store::CATCH_UP != 0 {
                    psi[i] += src[i];
                }
                psi[i] += t;
            }
        }
        (out, psi)
    }

    /// The kernel against the scalar loop: every store mode on the host's
    /// rung with its x-slabs spread over pools of 1, 2, 3, 4 and 8
    /// threads, and every store mode on every rung this CPU runs with the
    /// three arrays at element offsets 0–3 from where their storage
    /// starts, so neither the rung nor the placement may change a bit.
    /// A store mode that keeps nothing must leave `out` as it found it.
    fn kernel_matches_reference<T: Real>() {
        let c = T::from_f64(0.02 / 3.0);
        let rungs: Vec<Rung> = Rung::ALL.into_iter().filter(|r| r.available()).collect();
        for mesh in TEST_MESHES {
            let n = mesh.len();
            let vloc: Vec<T> = (0..n).map(|g| T::from_f64((g % 7) as f64 * 0.1 - 0.3)).collect();
            let zero_v = vec![T::ZERO; n];
            for n_orb in TEST_ORBITALS {
                let what = format!("{}x{}x{} n_orb {n_orb}", mesh.nx, mesh.ny, mesh.nz);
                let len = n * n_orb;
                let src = random_state::<T>(len, 7 + n_orb as u64);
                let out0 = random_state::<T>(len, 98);
                let psi0 = random_state::<T>(len, 99);
                let mut h = vec![Complex::zero(); len];
                for a_total in [0.0, 0.23] {
                    apply_h_reference(&mesh, n_orb, &vloc, a_total, &src, &mut h);
                    let st = Stencil::new(&mesh, n_orb, Some(&vloc), a_total, c);
                    for (mode, name) in STORES {
                        let (want_out, want_psi) = expected(mode, &h, &src, &out0, &psi0, c);
                        let check = |rung: Rung, offset: usize, how: &str| {
                            let placed = |v: &[Complex<T>]| {
                                let mut buf = vec![Complex::zero(); offset + len];
                                buf[offset..].copy_from_slice(v);
                                buf
                            };
                            let (src_b, mut out_b, mut psi_b) = (placed(&src), placed(&out0), placed(&psi0));
                            sweep(&st, mode, rung, &src_b[offset..], &mut out_b[offset..], &mut psi_b[offset..]);
                            let what = format!("{name} {what} A = {a_total}, {how}");
                            assert_same_bits(&out_b[offset..], &want_out, &format!("out, {what}"));
                            assert_same_bits(&psi_b[offset..], &want_psi, &format!("psi, {what}"));
                        };
                        for threads in [1, 2, 3, 4, 8] {
                            under_pool(threads, || check(rung_for::<T, 0>(), 0, &format!("{threads} threads")));
                        }
                        for &rung in &rungs {
                            for offset in 0..4 {
                                check(rung, offset, &format!("{} at offset {offset}", rung.name()));
                            }
                        }
                    }
                }
                // The public entry points.
                let mut got = vec![Complex::zero(); len];
                apply_h(&mesh, n_orb, &vloc, 0.23, &src, &mut got);
                apply_h_reference(&mesh, n_orb, &vloc, 0.23, &src, &mut h);
                assert_same_bits(&got, &h, &format!("apply_h {what}"));
                apply_h_reference(&mesh, n_orb, &zero_v, 0.0, &src, &mut h);
                apply_kinetic(&mesh, n_orb, &src, &mut got);
                assert_same_bits(&got, &h, &format!("apply_kinetic {what}"));
            }
        }
    }

    #[test]
    fn kernel_matches_scalar_reference_bitwise_f32() {
        kernel_matches_reference::<f32>();
    }

    #[test]
    fn kernel_matches_scalar_reference_bitwise_f64() {
        kernel_matches_reference::<f64>();
    }

    #[test]
    fn only_the_f32_taylor_stores_start_below_the_top_rung() {
        let top = Rung::ALL.into_iter().find(|r| r.available()).expect("portable");
        assert_eq!(dispatched_rungs::<f64>(), [top, top]);
        let [plain, taylor] = dispatched_rungs::<f32>();
        assert_eq!(plain, top);
        assert!(taylor.available() && taylor != Rung::Avx512f, "f32 Taylor on {taylor:?}");
    }

    #[test]
    fn wrap_table_matches_mesh_wrap() {
        for n in [RADIUS, 5, 9, 14] {
            for i in 0..n {
                let table = wrap_table(i, n);
                for s in -(RADIUS as isize)..=RADIUS as isize {
                    let got = table[RADIUS.wrapping_add_signed(s)];
                    assert_eq!(got, Mesh3::wrap(i, s, n), "n {n} i {i} s {s}");
                }
            }
        }
    }

    /// Plane wave e^{i 2π m·r/L} on the mesh, one orbital.
    fn plane_wave(mesh: &Mesh3, m: (i32, i32, i32)) -> Vec<C64> {
        let mut psi = vec![C64::zero(); mesh.len()];
        for (g, pg) in psi.iter_mut().enumerate() {
            let (ix, iy, iz) = mesh.coords(g);
            let phase = core::f64::consts::TAU
                * (m.0 as f64 * ix as f64 / mesh.nx as f64
                    + m.1 as f64 * iy as f64 / mesh.ny as f64
                    + m.2 as f64 * iz as f64 / mesh.nz as f64);
            *pg = Complex::cis(phase);
        }
        psi
    }

    #[test]
    fn kinetic_eigenvalue_of_plane_wave() {
        // −½∇² e^{ikz} = ½k² e^{ikz}; 8th-order FD reproduces ½k² to
        // O((kh)^8).
        let mesh = Mesh3::cubic(24, 0.5);
        let m = (0, 0, 2);
        let k = core::f64::consts::TAU * 2.0 / (24.0 * 0.5);
        let psi = plane_wave(&mesh, m);
        let mut out = vec![C64::zero(); psi.len()];
        apply_kinetic(&mesh, 1, &psi, &mut out);
        let expect = 0.5 * k * k;
        for g in 0..mesh.len() {
            let val = out[g] * psi[g].conj(); // |psi|=1 so this is out/psi
            assert!(
                (val.re - expect).abs() < 5e-5 * expect && val.im.abs() < 1e-9,
                "g={g}: {val:?} vs {expect}"
            );
        }
    }

    #[test]
    fn gradient_term_eigenvalue() {
        // −iA ∂z e^{ikz} = A·k e^{ikz}.
        let mesh = Mesh3::cubic(24, 0.5);
        let a = 0.37;
        let m = (0, 0, 1);
        let k = core::f64::consts::TAU / (24.0 * 0.5);
        let psi = plane_wave(&mesh, m);
        let mut h_psi = vec![C64::zero(); psi.len()];
        let vzero = vec![0.0f64; mesh.len()];
        apply_h(&mesh, 1, &vzero, a, &psi, &mut h_psi);
        let expect = 0.5 * k * k + a * k + 0.5 * a * a;
        for g in (0..mesh.len()).step_by(97) {
            let val = h_psi[g] * psi[g].conj();
            assert!(
                (val.re - expect).abs() < 5e-5 * expect.abs() && val.im.abs() < 1e-9,
                "g={g}: {val:?} vs {expect}"
            );
        }
    }

    #[test]
    fn hermiticity_on_random_state() {
        // <φ|Hψ> == conj(<ψ|Hφ>) for the discrete operator.
        let mesh = Mesh3::cubic(10, 0.7);
        let n = mesh.len();
        let mk = |seed: u64| -> Vec<C64> {
            (0..n)
                .map(|g| {
                    let x = ((g as u64).wrapping_mul(6364136223846793005).wrapping_add(seed))
                        >> 33;
                    let a = (x % 1000) as f64 / 500.0 - 1.0;
                    let b = ((x / 1000) % 1000) as f64 / 500.0 - 1.0;
                    dcmesh_numerics::c64(a, b)
                })
                .collect()
        };
        let phi = mk(1);
        let psi = mk(2);
        let vloc: Vec<f64> = (0..n).map(|g| ((g % 7) as f64) * 0.1 - 0.3).collect();
        let mut h_psi = vec![C64::zero(); n];
        let mut h_phi = vec![C64::zero(); n];
        apply_h(&mesh, 1, &vloc, 0.23, &psi, &mut h_psi);
        apply_h(&mesh, 1, &vloc, 0.23, &phi, &mut h_phi);
        let dot = |a: &[C64], b: &[C64]| -> C64 {
            a.iter().zip(b).fold(C64::zero(), |s, (x, y)| s + x.conj() * *y)
        };
        let lhs = dot(&phi, &h_psi);
        let rhs = dot(&h_phi, &psi).conj();
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn constant_function_has_zero_laplacian() {
        let mesh = Mesh3::cubic(12, 0.4);
        let psi = vec![C64::one(); mesh.len()];
        let mut out = vec![C64::zero(); mesh.len()];
        apply_kinetic(&mesh, 1, &psi, &mut out);
        for (g, v) in out.iter().enumerate() {
            assert!(v.abs() < 1e-11, "g={g}: {v:?}");
        }
    }

    #[test]
    fn multi_orbital_matches_single() {
        // Applying H to a 2-orbital state must equal per-orbital results.
        let mesh = Mesh3::cubic(10, 0.5);
        let n = mesh.len();
        let p0 = plane_wave(&mesh, (1, 0, 0));
        let p1 = plane_wave(&mesh, (0, 1, 1));
        let vloc: Vec<f64> = (0..n).map(|g| (g % 5) as f64 * 0.07).collect();
        // Interleave.
        let mut both = vec![C64::zero(); n * 2];
        for g in 0..n {
            both[g * 2] = p0[g];
            both[g * 2 + 1] = p1[g];
        }
        let mut out_both = vec![C64::zero(); n * 2];
        apply_h(&mesh, 2, &vloc, 0.1, &both, &mut out_both);
        let mut out0 = vec![C64::zero(); n];
        let mut out1 = vec![C64::zero(); n];
        apply_h(&mesh, 1, &vloc, 0.1, &p0, &mut out0);
        apply_h(&mesh, 1, &vloc, 0.1, &p1, &mut out1);
        for g in 0..n {
            assert!((out_both[g * 2] - out0[g]).abs() < 1e-12);
            assert!((out_both[g * 2 + 1] - out1[g]).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "stencil radius")]
    fn tiny_mesh_rejected() {
        let mesh = Mesh3::cubic(6, 0.5);
        let psi = vec![C64::zero(); mesh.len()];
        let mut out = psi.clone();
        apply_kinetic(&mesh, 1, &psi, &mut out);
    }

    #[test]
    fn anisotropic_mesh_kinetic_eigenvalues() {
        // Non-cubic mesh: exercises the index arithmetic with distinct
        // nx/ny/nz. A plane wave with one quantum along each axis has
        // kinetic energy ½(kx² + ky² + kz²) with axis-dependent k.
        let mesh = Mesh3 { nx: 10, ny: 12, nz: 14, spacing: 0.5 };
        let m = (1, 1, 1);
        let psi = plane_wave(&mesh, m);
        let mut out = vec![C64::zero(); psi.len()];
        apply_kinetic(&mesh, 1, &psi, &mut out);
        let k = |n: usize| core::f64::consts::TAU / (n as f64 * mesh.spacing);
        let expect = 0.5 * (k(10).powi(2) + k(12).powi(2) + k(14).powi(2));
        for g in (0..mesh.len()).step_by(61) {
            let val = out[g] * psi[g].conj();
            assert!(
                (val.re - expect).abs() < 5e-4 * expect && val.im.abs() < 1e-9,
                "g={g}: {val:?} vs {expect}"
            );
        }
    }
}
