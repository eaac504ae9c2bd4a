//! Precision-format descriptors (paper Table IV).
//!
//! The paper characterises each format by its exponent and mantissa bit
//! counts; these descriptors drive both the Table IV harness and the
//! analytical error model.

/// Static description of a floating-point format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrecisionFormat {
    /// Human-readable name as used in the paper.
    pub name: &'static str,
    /// Number of exponent bits.
    pub exponent_bits: u32,
    /// Number of explicit mantissa bits (excluding the implicit leading 1).
    pub mantissa_bits: u32,
    /// Total storage width in bits (for memory-footprint modelling).
    pub storage_bits: u32,
}

impl PrecisionFormat {
    /// Machine epsilon `2^-mantissa_bits` of the format.
    pub fn epsilon(&self) -> f64 {
        2f64.powi(-(self.mantissa_bits as i32))
    }

    /// Unit roundoff (half an ulp at 1.0): the max relative error of a
    /// single round-to-nearest conversion, `2^-(mantissa_bits+1)`.
    pub fn unit_roundoff(&self) -> f64 {
        2f64.powi(-(self.mantissa_bits as i32) - 1)
    }

    /// Looks a format up by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<&'static PrecisionFormat> {
        FORMATS.iter().find(|f| f.name.eq_ignore_ascii_case(name))
    }
}

/// IEEE binary64.
pub const FP64: PrecisionFormat = PrecisionFormat {
    name: "FP64",
    exponent_bits: 11,
    mantissa_bits: 52,
    storage_bits: 64,
};

/// IEEE binary32.
pub const FP32: PrecisionFormat = PrecisionFormat {
    name: "FP32",
    exponent_bits: 8,
    mantissa_bits: 23,
    storage_bits: 32,
};

/// TensorFloat-32 (19 significant bits, stored in 32).
pub const TF32: PrecisionFormat = PrecisionFormat {
    name: "TF32",
    exponent_bits: 8,
    mantissa_bits: 10,
    storage_bits: 32,
};

/// IEEE binary16.
pub const FP16: PrecisionFormat = PrecisionFormat {
    name: "FP16",
    exponent_bits: 5,
    mantissa_bits: 10,
    storage_bits: 16,
};

/// bfloat16.
pub const BF16: PrecisionFormat = PrecisionFormat {
    name: "BF16",
    exponent_bits: 8,
    mantissa_bits: 7,
    storage_bits: 16,
};

/// The formats studied in the paper, in Table IV order.
pub const FORMATS: [PrecisionFormat; 4] = [FP64, FP32, TF32, BF16];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_bit_counts() {
        // Exactly the rows of paper Table IV.
        assert_eq!((FP64.exponent_bits, FP64.mantissa_bits), (11, 52));
        assert_eq!((FP32.exponent_bits, FP32.mantissa_bits), (8, 23));
        assert_eq!((TF32.exponent_bits, TF32.mantissa_bits), (8, 10));
        assert_eq!((BF16.exponent_bits, BF16.mantissa_bits), (8, 7));
    }

    #[test]
    fn tf32_has_fp16_mantissa_and_bf16_exponent() {
        // "TF32 has the same number of mantissa bits as FP16 but the same
        // exponent range of BF16" — paper §V-A.
        assert_eq!(TF32.mantissa_bits, FP16.mantissa_bits);
        assert_eq!(TF32.exponent_bits, BF16.exponent_bits);
    }

    #[test]
    fn epsilons_match_native_types() {
        assert_eq!(FP32.epsilon(), f32::EPSILON as f64);
        assert_eq!(FP64.epsilon(), f64::EPSILON);
        // The emulated storage types: 1 + epsilon is the next value above 1.
        let one_up = |eps: f64| 1.0 + eps as f32;
        assert_eq!(crate::Bf16::round_f32(one_up(BF16.epsilon())), one_up(BF16.epsilon()));
        assert_eq!(crate::Bf16::round_f32(one_up(BF16.epsilon() / 2.0)), 1.0);
        assert_eq!(crate::Tf32::round_f32(one_up(TF32.epsilon())), one_up(TF32.epsilon()));
        assert_eq!(crate::Tf32::round_f32(one_up(TF32.epsilon() / 2.0)), 1.0);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        assert_eq!(PrecisionFormat::by_name("bf16"), Some(&BF16));
        assert_eq!(PrecisionFormat::by_name("Tf32"), Some(&TF32));
        assert_eq!(PrecisionFormat::by_name("fp8"), None);
    }

    #[test]
    fn accuracy_ordering() {
        assert!(BF16.epsilon() > TF32.epsilon());
        assert!(TF32.epsilon() > FP32.epsilon());
        assert!(FP32.epsilon() > FP64.epsilon());
    }
}
