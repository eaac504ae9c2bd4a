//! Static description of one Xe-HPC stack (paper Table I, §III-A, §IV-A).

use mkl_lite::ComputeMode;

/// Which execution units a precision runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The 512-bit vector engines (8 per Xe core): FP64/FP32/FP16.
    Vector,
    /// The Intel XMX matrix engines (8 per Xe core): TF32/BF16/FP16/INT8
    /// systolic arrays.
    Matrix,
}

/// Hardware description of a single GPU stack.
///
/// Defaults come from the published Max 1550 specification used by the
/// paper: 448 EUs ("vector engines") at up to 1.6 GHz, 64 GB of HBM per
/// stack, and the Table I peak throughputs.
#[derive(Clone, Copy, Debug)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Number of vector engines (EUs) in the stack.
    pub vector_engines: u32,
    /// Number of XMX matrix engines in the stack.
    pub matrix_engines: u32,
    /// Maximum clock in GHz.
    pub max_ghz: f64,
    /// HBM capacity per stack in bytes.
    pub hbm_bytes: u64,
    /// Peak HBM bandwidth per stack, bytes/second.
    pub hbm_bandwidth: f64,
    /// L2 ("Rambo") cache per stack in bytes.
    pub l2_bytes: u64,
    /// Peak FP64 vector throughput, FLOP/s (Table I: 26 TFLOP/s).
    pub peak_fp64: f64,
    /// Peak FP32 vector throughput, FLOP/s (Table I: 26 TFLOP/s).
    pub peak_fp32: f64,
    /// Peak TF32 systolic throughput, FLOP/s (Table I: 209 TFLOP/s).
    pub peak_tf32: f64,
    /// Peak BF16 systolic throughput, FLOP/s (Table I: 419 TFLOP/s).
    pub peak_bf16: f64,
    /// Peak FP16 systolic throughput, FLOP/s (Table I: 419 TFLOP/s).
    pub peak_fp16: f64,
    /// Peak INT8 systolic throughput, OP/s (Table I: 839 TOP/s).
    pub peak_int8: f64,
    /// Kernel launch latency in seconds (Level-Zero submission +
    /// scheduling; a few microseconds on PVC).
    pub launch_latency: f64,
}

/// One stack of the Intel Data Center GPU Max Series 1550, as used for
/// every measurement in the paper ("we ran all experiments on a single
/// stack to avoid NUMA effects").
pub const MAX_1550_STACK: DeviceSpec = DeviceSpec {
    name: "Intel Data Center GPU Max 1550 (1 stack)",
    vector_engines: 448,
    matrix_engines: 448,
    max_ghz: 1.6,
    hbm_bytes: 64 * (1 << 30),
    // 128 GB HBM2e across two stacks gives ~3.2 TB/s per card.
    hbm_bandwidth: 1.6e12,
    l2_bytes: 204 * (1 << 20),
    peak_fp64: 26.0e12,
    peak_fp32: 26.0e12,
    peak_tf32: 209.0e12,
    peak_bf16: 419.0e12,
    peak_fp16: 419.0e12,
    peak_int8: 839.0e12,
    launch_latency: 4.0e-6,
};

impl DeviceSpec {
    /// Table I row: peak throughput (FLOP/s or OP/s) and engine type for a
    /// precision name.
    pub fn table1_row(&self, precision: &str) -> Option<(f64, Engine)> {
        [
            ("FP64", self.peak_fp64, Engine::Vector),
            ("FP32", self.peak_fp32, Engine::Vector),
            ("TF32", self.peak_tf32, Engine::Matrix),
            ("BF16", self.peak_bf16, Engine::Matrix),
            ("FP16", self.peak_fp16, Engine::Matrix),
            ("INT8", self.peak_int8, Engine::Matrix),
        ]
        .into_iter()
        .find(|(name, ..)| name.eq_ignore_ascii_case(precision))
        .map(|(_, peak, engine)| (peak, engine))
    }

    /// The engine a compute mode's GEMM inner products execute on.
    pub fn engine_for_mode(&self, mode: ComputeMode) -> Engine {
        if mode.uses_matrix_engines() {
            Engine::Matrix
        } else {
            Engine::Vector
        }
    }

    /// Peak element-product throughput (real FLOP/s) available to a GEMM
    /// in the given compute mode, before any derating: the Table I peak
    /// of the format a `FLOAT_TO_*` mode splits into, else the vector
    /// engines' at the element precision.
    pub fn peak_for_mode(&self, mode: ComputeMode, fp64: bool) -> f64 {
        match mode.systolic() {
            Some((format, _)) => {
                self.table1_row(format.name).expect("systolic formats are Table I rows").0
            }
            None if fp64 => self.peak_fp64,
            None => self.peak_fp32,
        }
    }

    /// Peak theoretical GEMM speedup of `mode` over FP32, counting the
    /// component products the mode must execute — reproduces paper
    /// Table II exactly.
    pub fn theoretical_speedup(&self, mode: ComputeMode) -> f64 {
        let peak_ratio = self.peak_for_mode(mode, false) / self.peak_fp32;
        match mode {
            // 3M replaces 4 real multiplies by 3 at the same peak.
            ComputeMode::Complex3m => 4.0 / 3.0,
            _ => peak_ratio / mode.component_products() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let d = MAX_1550_STACK;
        assert_eq!(d.table1_row("FP64"), Some((26.0e12, Engine::Vector)));
        assert_eq!(d.table1_row("FP32"), Some((26.0e12, Engine::Vector)));
        assert_eq!(d.table1_row("TF32"), Some((209.0e12, Engine::Matrix)));
        assert_eq!(d.table1_row("BF16"), Some((419.0e12, Engine::Matrix)));
        assert_eq!(d.table1_row("FP16"), Some((419.0e12, Engine::Matrix)));
        assert_eq!(d.table1_row("INT8"), Some((839.0e12, Engine::Matrix)));
        assert_eq!(d.table1_row("FP8"), None);
    }

    #[test]
    fn table_ii_theoretical_speedups() {
        let d = MAX_1550_STACK;
        let close = |a: f64, b: f64| (a - b).abs() < 0.02 * b;
        assert!(close(d.theoretical_speedup(ComputeMode::FloatToBf16), 16.0));
        assert!(close(d.theoretical_speedup(ComputeMode::FloatToBf16x2), 16.0 / 3.0));
        assert!(close(d.theoretical_speedup(ComputeMode::FloatToBf16x3), 8.0 / 3.0));
        assert!(close(d.theoretical_speedup(ComputeMode::FloatToTf32), 8.0));
        assert!(close(d.theoretical_speedup(ComputeMode::Complex3m), 4.0 / 3.0));
    }

    #[test]
    fn mode_to_engine_mapping() {
        let d = MAX_1550_STACK;
        assert_eq!(d.engine_for_mode(ComputeMode::Standard), Engine::Vector);
        assert_eq!(d.engine_for_mode(ComputeMode::Complex3m), Engine::Vector);
        for m in [
            ComputeMode::FloatToBf16,
            ComputeMode::FloatToBf16x2,
            ComputeMode::FloatToBf16x3,
            ComputeMode::FloatToTf32,
        ] {
            assert_eq!(d.engine_for_mode(m), Engine::Matrix);
        }
    }

    #[test]
    fn stack_memory_holds_135_atom_system_but_not_double() {
        // Table V: the 96^3 x 1024-orbital system is the largest fitting
        // in the 64 GB stack. One c32 wave-function copy is ~7.25 GB and
        // the solver holds several copies plus work buffers.
        let psi_bytes = 96u64.pow(3) * 1024 * 8;
        assert!(psi_bytes * 8 < MAX_1550_STACK.hbm_bytes);
        let psi192 = 192u64.pow(3) * 2048 * 8;
        assert!(psi192 * 8 > MAX_1550_STACK.hbm_bytes);
    }
}
