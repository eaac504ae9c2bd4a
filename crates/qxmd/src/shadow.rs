//! Shadow dynamics and CPU↔GPU transfer accounting.
//!
//! "In the latest implementation, LFD runs on the GPU and QXMD runs on
//! the CPU, and CPU-GPU data transfers are minimized through the use of
//! shadow dynamics" (paper §II-C). Instead of shipping the full
//! `N_grid × N_orb` wave function to the host every MD step, LFD keeps a
//! small subspace *shadow* matrix (`S = C†C`, BLAS call 9 of each QD
//! step) whose drift from the identity tells QXMD how far the electronic
//! state has rotated; the scalar observables (nexc, energies) ride along.
//! The [`TransferLedger`] makes the saving measurable.

use dcmesh_lfd::state::LfdState;
use dcmesh_numerics::Real;

/// Byte counter for host↔device traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferLedger {
    /// Bytes uploaded host → device.
    pub host_to_device: u64,
    /// Bytes downloaded device → host.
    pub device_to_host: u64,
    /// Individual transfer events.
    pub events: u64,
}

impl TransferLedger {
    /// Records an upload.
    pub fn upload(&mut self, bytes: u64) {
        self.host_to_device += bytes;
        self.events += 1;
    }

    /// Records a download.
    pub fn download(&mut self, bytes: u64) {
        self.device_to_host += bytes;
        self.events += 1;
    }

    /// Total bytes in both directions.
    pub fn total(&self) -> u64 {
        self.host_to_device + self.device_to_host
    }
}

/// Complex-element byte width of the LFD state on the device.
const C32_BYTES: u64 = 8;
/// Complex-double width of host-side subspace matrices.
const C64_BYTES: u64 = 16;

/// Records the per-MD-step synchronisation traffic *with* shadow
/// dynamics: the subspace shadow matrix and observables come down, the
/// refreshed potential and (at SCF boundaries) the reference rotation go
/// up. No grid-sized array crosses the bus between refreshes.
pub fn sync_with_shadow(ledger: &mut TransferLedger, n_grid: usize, n_orb: usize, n_atoms: usize) {
    let _ = n_grid; // the whole point: no N_grid-sized transfer
    ledger.download((n_orb * n_orb) as u64 * C64_BYTES); // shadow matrix
    ledger.download(64); // scalar observables (ekin…javg)
    ledger.upload((n_atoms * 3) as u64 * 8); // new ionic positions
    ledger.upload((n_orb * n_orb) as u64 * C64_BYTES); // SCF rotation
}

/// The naive alternative: ship the full wave function down and back up
/// every MD step.
pub fn sync_full_state(ledger: &mut TransferLedger, n_grid: usize, n_orb: usize, n_atoms: usize) {
    ledger.download((n_grid * n_orb) as u64 * C32_BYTES);
    ledger.upload((n_grid * n_orb) as u64 * C32_BYTES);
    ledger.upload((n_atoms * 3) as u64 * 8);
}

/// Max deviation of the shadow matrix from the identity — how far the
/// propagated subspace has rotated since the last refresh. QXMD uses
/// this to decide whether force extrapolation is still trustworthy.
pub fn shadow_drift<T: Real>(state: &LfdState<T>, n_orb: usize) -> f64 {
    let mut d = 0.0f64;
    for i in 0..n_orb {
        for j in 0..n_orb {
            let want = if i == j { 1.0 } else { 0.0 };
            let s = state.shadow[i * n_orb + j];
            let dev = ((s.re.to_f64() - want).powi(2) + s.im.to_f64().powi(2)).sqrt();
            d = d.max(dev);
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_lfd::propagator::{qd_step, QdScratch};
    use dcmesh_lfd::state::cosine_potential;
    use dcmesh_lfd::{LaserPulse, LfdParams, Mesh3};

    #[test]
    fn shadow_transfers_orders_of_magnitude_smaller() {
        // Paper-scale 135-atom system.
        let (n_grid, n_orb, n_atoms) = (96 * 96 * 96, 1024, 135);
        let mut with = TransferLedger::default();
        let mut without = TransferLedger::default();
        for _ in 0..42 {
            sync_with_shadow(&mut with, n_grid, n_orb, n_atoms);
            sync_full_state(&mut without, n_grid, n_orb, n_atoms);
        }
        let ratio = without.total() as f64 / with.total() as f64;
        assert!(ratio > 100.0, "shadow dynamics saves only {ratio}x");
    }

    #[test]
    fn ledger_accumulates() {
        let mut l = TransferLedger::default();
        l.upload(100);
        l.download(50);
        assert_eq!(l.total(), 150);
        assert_eq!(l.events, 2);
    }

    #[test]
    fn drift_grows_with_propagation() {
        let p = LfdParams {
            mesh: Mesh3::cubic(9, 0.6),
            n_orb: 6,
            n_occ: 3,
            dt: 0.02,
            vnl_strength: 0.2,
            taylor_order: 4,
            laser: LaserPulse { amplitude: 0.4, omega: 0.4, duration: 500.0, phase: 0.0 },
            induced_coupling: 0.0,
        };
        let mut st = dcmesh_lfd::LfdState::<f64>::initialize(&p, cosine_potential(&p.mesh, 0.3));
        let mut scratch = QdScratch::new(&p);
        qd_step(&p, &mut st, &mut scratch);
        let early = shadow_drift(&st, p.n_orb);
        for _ in 0..60 {
            qd_step(&p, &mut st, &mut scratch);
        }
        let late = shadow_drift(&st, p.n_orb);
        assert!(
            late > early,
            "drift should grow under driving: early {early}, late {late}"
        );
    }
}
