//! `dcmesh-lfd`: Local Field Dynamics — the GPU-resident half of DCMESH.
//!
//! LFD propagates the electronic wave functions under a laser field on a
//! finite-difference mesh ("for simple data parallelism", paper §IV-D).
//! The state is the complex `N_grid × N_orb` wave-function matrix Ψ; one
//! quantum-dynamical (QD) step applies
//!
//! 1. the **local** Hamiltonian — kinetic energy via a high-order FD
//!    Laplacian, local potential, and the velocity-gauge laser coupling
//!    `−i A·∇ + A²/2` — through a 4th-order Taylor propagator (mesh
//!    kernels, *not* BLAS);
//! 2. the **nonlocal correction**, which is not mesh-friendly and is
//!    therefore mapped into the Kohn–Sham subspace and executed as CGEMMs
//!    (paper Eq. 1): `Ψ(t) ← Ψ(t) + c·Ψ(0)(Ψ†(0)Ψ(t))` — [`nonlocal`];
//! 3. the BLASified observables: [`energy`] (`calc_energy`) and
//!    [`remap`] (`remap_occ`), plus the non-BLAS current density; and
//! 4. the Maxwell side: a uniform induced vector potential driven by the
//!    average current (the "local field" of Maxwell–Ehrenfest).
//!
//! Exactly **nine CGEMM calls** are issued per QD step, matching the
//! paper's artifact description ("Each QD step contains 9 BLAS calls"),
//! so an `MKL_VERBOSE` dump of this code has the same shape as one from
//! DCMESH itself. The same step structure is exported as a device-kernel
//! [`schedule`] so the `xe-gpu` model can price a QD step at paper scale
//! without executing it.
//!
//! All mesh numerics are generic over `f32`/`f64` ([`dcmesh_numerics::Real`]):
//! the paper's FP32 runs use the `f32` instantiation, its FP64 baseline
//! the `f64` one. The alternative BLAS compute modes act *only* inside
//! the three BLASified routines, exactly as in the paper.

pub mod energy;
pub mod field;
pub mod hamiltonian;
pub mod laser;
pub mod mesh;
pub mod nonlocal;
pub mod observables;
pub mod policy;
pub mod propagator;
pub mod remap;
pub mod schedule;
pub mod state;

pub use laser::LaserPulse;
pub use mesh::Mesh3;
pub use policy::{CallSite, PrecisionPolicy};
pub use schedule::{qd_step_schedule, LfdPrecision};
pub use state::{LfdParams, LfdState, StepObservables};
