//! `dcmesh-qxmd`: the CPU-resident FP64 half of DCMESH.
//!
//! QXMD owns everything the paper keeps at double precision on the host:
//!
//! * the **ionic system** — lead-titanate (PbTiO₃) supercells matching the
//!   paper's 40- and 135-atom configurations ([`lattice`]),
//! * **molecular dynamics** — velocity-Verlet with a short-range pair
//!   potential plus an Ehrenfest bond-softening coupling to the electronic
//!   excitation ([`forces`], [`md`]),
//! * the **SCF wave-function refresh** — executed every 500 QD steps at
//!   FP64, re-orthonormalising (Löwdin) and re-diagonalising
//!   (Rayleigh–Ritz) the propagated orbitals. This is the paper's stated
//!   mechanism that "prevents the buildup of truncation errors which may
//!   otherwise accumulate through the use of lower precision calculations"
//!   ([`scf`]),
//! * **shadow dynamics** — force extrapolation from the subspace shadow
//!   matrix so ionic steps between refreshes need no Ψ transfer, with
//!   explicit CPU↔GPU byte accounting ([`shadow`]).

pub mod forces;
pub mod lattice;
pub mod md;
pub mod scf;
pub mod shadow;
pub mod species;

pub use lattice::{pto_supercell, AtomicSystem};
pub use md::MdIntegrator;
pub use scf::{initial_scf, scf_refresh, ScfReport};
pub use species::Species;
