//! Device-time modelling hook.
//!
//! The paper's timings come from a real Intel Max 1550 stack; ours come
//! from the `xe-gpu` analytical device model. To keep this crate free of a
//! dependency on the model (and vice versa), the model is injected through
//! the [`DeviceTimeModel`] trait: when one is installed on the calling
//! thread, every GEMM call also receives a *modelled device execution
//! time*, which the verbose log records alongside the measured host wall
//! time. The Fig. 3 / Table VI harnesses read the modelled time; the host
//! time is only diagnostic.

use crate::context;
use crate::mode::ComputeMode;
use std::sync::Arc;

/// Element domain of a GEMM call, for the device model's flop accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Real single precision (SGEMM).
    Real32,
    /// Real double precision (DGEMM).
    Real64,
    /// Complex single precision (CGEMM).
    Complex32,
    /// Complex double precision (ZGEMM).
    Complex64,
}

impl Domain {
    /// Bytes per element.
    pub fn element_bytes(self) -> usize {
        match self {
            Domain::Real32 => 4,
            Domain::Real64 => 8,
            Domain::Complex32 => 8,
            Domain::Complex64 => 16,
        }
    }

    /// Real multiply–add pairs per element-level multiply-accumulate:
    /// 1 for real domains, 4 for complex (3 under `COMPLEX_3M`).
    pub fn real_macs_per_mac(self, mode: ComputeMode) -> f64 {
        match self {
            Domain::Real32 | Domain::Real64 => 1.0,
            Domain::Complex32 | Domain::Complex64 => {
                if mode == ComputeMode::Complex3m {
                    3.0
                } else {
                    4.0
                }
            }
        }
    }

    /// True for complex domains.
    pub fn is_complex(self) -> bool {
        matches!(self, Domain::Complex32 | Domain::Complex64)
    }
}

/// Everything a device model needs to price one GEMM call.
#[derive(Clone, Copy, Debug)]
pub struct GemmDesc {
    /// Element domain.
    pub domain: Domain,
    /// Rows of `op(A)` / C.
    pub m: usize,
    /// Columns of `op(B)` / C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Active compute mode.
    pub mode: ComputeMode,
}

impl GemmDesc {
    /// Real multiply–add count for this call (component products and
    /// complex 3M/4M structure included).
    pub fn real_macs(&self) -> f64 {
        let base = self.m as f64 * self.n as f64 * self.k as f64;
        base * self.domain.real_macs_per_mac(self.mode) * self.mode.component_products() as f64
    }

    /// Bytes moved assuming each operand is read once and C written once
    /// (the capacity-miss-free lower bound a tuned GEMM approaches).
    pub fn min_bytes(&self) -> f64 {
        let e = self.domain.element_bytes() as f64;
        let (m, n, k) = (self.m as f64, self.n as f64, self.k as f64);
        (m * k + k * n + 2.0 * m * n) * e
    }

    /// Arithmetic intensity in real MACs per byte.
    pub fn intensity(&self) -> f64 {
        self.real_macs() / self.min_bytes()
    }
}

/// A model that converts a GEMM description into device execution seconds.
pub trait DeviceTimeModel: Send + Sync {
    /// Predicted device execution time in seconds.
    fn gemm_time(&self, desc: &GemmDesc) -> f64;
}

/// Installs (or replaces) the calling thread's device time model.
pub fn install_device_model(model: Arc<dyn DeviceTimeModel>) {
    context::with(|cx| cx.model = Some(model));
}

/// Removes the calling thread's device time model.
pub fn clear_device_model() {
    context::with(|cx| cx.model = None);
}

/// Prices a GEMM with the installed model, if any.
pub fn modelled_gemm_time(desc: &GemmDesc) -> Option<f64> {
    // The handle is cloned out so the model runs with the context released.
    let model = context::with(|cx| cx.model.clone());
    model.map(|m| m.gemm_time(desc))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FlatModel;
    impl DeviceTimeModel for FlatModel {
        fn gemm_time(&self, desc: &GemmDesc) -> f64 {
            desc.real_macs() * 1e-12
        }
    }

    #[test]
    fn desc_flop_accounting() {
        let d = GemmDesc {
            domain: Domain::Complex32,
            m: 128,
            n: 128,
            k: 1000,
            mode: ComputeMode::Standard,
        };
        // 4 real MACs per complex MAC.
        assert_eq!(d.real_macs(), 128.0 * 128.0 * 1000.0 * 4.0);
        let d3 = GemmDesc { mode: ComputeMode::Complex3m, ..d };
        assert_eq!(d3.real_macs(), 128.0 * 128.0 * 1000.0 * 3.0);
    }

    #[test]
    fn split_modes_multiply_work() {
        let base = GemmDesc {
            domain: Domain::Real32,
            m: 64,
            n: 64,
            k: 64,
            mode: ComputeMode::Standard,
        };
        let x3 = GemmDesc { mode: ComputeMode::FloatToBf16x3, ..base };
        assert_eq!(x3.real_macs(), 6.0 * base.real_macs());
    }

    #[test]
    fn install_and_query_model() {
        clear_device_model();
        let d = GemmDesc {
            domain: Domain::Real32,
            m: 10,
            n: 10,
            k: 10,
            mode: ComputeMode::Standard,
        };
        assert!(modelled_gemm_time(&d).is_none());
        install_device_model(Arc::new(FlatModel));
        assert_eq!(modelled_gemm_time(&d), Some(1000.0 * 1e-12));
        clear_device_model();
        assert!(modelled_gemm_time(&d).is_none());
    }

    #[test]
    fn intensity_grows_with_square_size() {
        let small = GemmDesc {
            domain: Domain::Real32,
            m: 32,
            n: 32,
            k: 32,
            mode: ComputeMode::Standard,
        };
        let big = GemmDesc { m: 1024, n: 1024, k: 1024, ..small };
        assert!(big.intensity() > small.intensity());
    }
}
