//! The alternative BLAS compute modes (paper Table II).
//!
//! The four `FLOAT_TO_*` modes are one scheme: inputs split into `depth`
//! terms of a systolic format ([`ComputeMode::systolic`]). Depth, product
//! count, effective mantissa bits and engine all derive from that pair;
//! the variants remain because their names are Table II's vocabulary.

use core::fmt;
use core::str::FromStr;
use dcmesh_numerics::format::{PrecisionFormat, BF16, FP32, TF32};

/// A BLAS level-3 compute mode, mirroring oneMKL's
/// `MKL_BLAS_COMPUTE_MODE` settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ComputeMode {
    /// Standard IEEE arithmetic at the routine's native precision
    /// (the paper's FP32/FP64 baselines).
    #[default]
    Standard,
    /// `FLOAT_TO_BF16`: inputs truncated to one BF16 term, FP32 accumulate.
    FloatToBf16,
    /// `FLOAT_TO_BF16X2`: inputs split into two BF16 terms, the three
    /// leading cross products kept, FP32 accumulate.
    FloatToBf16x2,
    /// `FLOAT_TO_BF16X3`: inputs split into three BF16 terms, the six
    /// leading cross products kept, FP32 accumulate. Accuracy comparable
    /// to standard single precision.
    FloatToBf16x3,
    /// `FLOAT_TO_TF32`: inputs rounded to TF32, FP32 accumulate.
    FloatToTf32,
    /// `COMPLEX_3M`: 3-multiplication complex product (three real GEMMs
    /// instead of four), same input precision.
    Complex3m,
}

impl ComputeMode {
    /// All modes in paper Table II order (plus the Standard baseline first).
    pub const ALL: [ComputeMode; 6] = [
        ComputeMode::Standard,
        ComputeMode::FloatToBf16,
        ComputeMode::FloatToBf16x2,
        ComputeMode::FloatToBf16x3,
        ComputeMode::FloatToTf32,
        ComputeMode::Complex3m,
    ];

    /// The five *alternative* modes studied by the paper (everything except
    /// the Standard baseline).
    pub const ALTERNATIVE: [ComputeMode; 5] = [
        ComputeMode::FloatToBf16,
        ComputeMode::FloatToBf16x2,
        ComputeMode::FloatToBf16x3,
        ComputeMode::FloatToTf32,
        ComputeMode::Complex3m,
    ];

    /// The `MKL_BLAS_COMPUTE_MODE` value selecting this mode, or `None`
    /// for the default mode.
    pub fn env_value(self) -> Option<&'static str> {
        match self {
            ComputeMode::Standard => None,
            ComputeMode::FloatToBf16 => Some("FLOAT_TO_BF16"),
            ComputeMode::FloatToBf16x2 => Some("FLOAT_TO_BF16X2"),
            ComputeMode::FloatToBf16x3 => Some("FLOAT_TO_BF16X3"),
            ComputeMode::FloatToTf32 => Some("FLOAT_TO_TF32"),
            ComputeMode::Complex3m => Some("COMPLEX_3M"),
        }
    }

    /// The mode's `MKL_BLAS_COMPUTE_MODE` spelling, with `STANDARD` for the
    /// default: the one string ledger rows, span attributes, verbose lines
    /// and run reports key a mode on.
    pub fn name(self) -> &'static str {
        self.env_value().unwrap_or("STANDARD")
    }

    /// Short display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ComputeMode::Standard => "FP32",
            ComputeMode::FloatToBf16 => "BF16",
            ComputeMode::FloatToBf16x2 => "BF16x2",
            ComputeMode::FloatToBf16x3 => "BF16x3",
            ComputeMode::FloatToTf32 => "TF32",
            ComputeMode::Complex3m => "Complex_3m",
        }
    }

    /// How a `FLOAT_TO_*` mode re-represents its single-precision inputs
    /// for the systolic arrays: as `depth` terms of `format` (BF16 or
    /// TF32), `depth ≤ MAX_SPLIT_DEPTH`. `None` for the modes that keep
    /// native element precision. Every other property of a mode's
    /// numerics derives from this pair.
    pub fn systolic(self) -> Option<(PrecisionFormat, usize)> {
        match self {
            ComputeMode::FloatToBf16 => Some((BF16, 1)),
            ComputeMode::FloatToBf16x2 => Some((BF16, 2)),
            ComputeMode::FloatToBf16x3 => Some((BF16, 3)),
            ComputeMode::FloatToTf32 => Some((TF32, 1)),
            ComputeMode::Standard | ComputeMode::Complex3m => None,
        }
    }

    /// Number of split terms per input value (`None` when the mode does
    /// not re-represent its inputs).
    pub fn split_depth(self) -> Option<usize> {
        self.systolic().map(|(_, depth)| depth)
    }

    /// Number of component-matrix products a real GEMM in this mode
    /// covers on the (emulated) systolic arrays: the `d(d+1)/2` products
    /// `AᵢBⱼ` with `i + j < d`.
    pub fn component_products(self) -> usize {
        self.split_depth().map_or(1, |d| d * (d + 1) / 2)
    }

    /// Effective significand bits carried by the mode's input
    /// representation (implicit bit included): `d` terms of the format's,
    /// or FP32's own; drives the accuracy ordering observed in the paper.
    pub fn effective_mantissa_bits(self) -> u32 {
        match self.systolic() {
            Some((format, depth)) => (format.mantissa_bits + 1) * depth as u32,
            None => FP32.mantissa_bits + 1,
        }
    }

    /// True for the modes that execute on the XMX matrix engines.
    pub fn uses_matrix_engines(self) -> bool {
        self.systolic().is_some()
    }

    /// The default precision-escalation ladder walked by the run
    /// supervisor when a burst diverges: each entry is re-tried under
    /// the next one, ending at the Standard (FP32) baseline.
    pub const ESCALATION_LADDER: [ComputeMode; 5] = [
        ComputeMode::FloatToBf16,
        ComputeMode::FloatToBf16x2,
        ComputeMode::FloatToBf16x3,
        ComputeMode::FloatToTf32,
        ComputeMode::Standard,
    ];

    /// Position of this mode on the escalation ladder; higher ranks are
    /// escalation targets of lower ones. [`ComputeMode::Complex3m`] is
    /// off-ladder: it keeps native element precision but its 3M
    /// structure can cancel catastrophically, so it ranks one step
    /// below Standard (alongside TF32).
    pub fn escalation_rank(self) -> usize {
        match self {
            ComputeMode::FloatToBf16 => 0,
            ComputeMode::FloatToBf16x2 => 1,
            ComputeMode::FloatToBf16x3 => 2,
            ComputeMode::FloatToTf32 | ComputeMode::Complex3m => 3,
            ComputeMode::Standard => 4,
        }
    }

    /// The next-stronger mode on the escalation ladder, or `None` when
    /// already at the Standard baseline. `Complex3m` escalates directly
    /// to Standard (dropping the 3M structure).
    pub fn next_stronger(self) -> Option<ComputeMode> {
        match self {
            ComputeMode::Complex3m => Some(ComputeMode::Standard),
            _ => {
                let pos = ComputeMode::ESCALATION_LADDER.iter().position(|&m| m == self)?;
                ComputeMode::ESCALATION_LADDER.get(pos + 1).copied()
            }
        }
    }

    /// Parses the `MKL_BLAS_COMPUTE_MODE` environment value. Empty or
    /// unset strings mean [`ComputeMode::Standard`]. Unknown values are an
    /// error (oneMKL silently ignores them; we prefer to fail loudly).
    pub fn from_env_value(value: &str) -> Result<ComputeMode, ParseModeError> {
        let v = value.trim();
        if v.is_empty() {
            return Ok(ComputeMode::Standard);
        }
        for mode in ComputeMode::ALTERNATIVE {
            if mode.env_value().is_some_and(|e| e.eq_ignore_ascii_case(v)) {
                return Ok(mode);
            }
        }
        if v.eq_ignore_ascii_case("STANDARD") {
            return Ok(ComputeMode::Standard);
        }
        Err(ParseModeError { value: v.to_string() })
    }
}

impl fmt::Display for ComputeMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ComputeMode {
    type Err = ParseModeError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // Accept both env-variable spellings and figure labels.
        ComputeMode::from_env_value(s).or_else(|e| {
            ComputeMode::ALL
                .into_iter()
                .find(|m| m.label().eq_ignore_ascii_case(s.trim()))
                .ok_or(e)
        })
    }
}

/// Error returned for an unrecognised compute-mode string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseModeError {
    /// The offending value.
    pub value: String,
}

impl fmt::Display for ParseModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown MKL_BLAS_COMPUTE_MODE value: {:?} (valid values: ", self.value)?;
        for mode in ComputeMode::ALTERNATIVE {
            write!(f, "{}, ", mode.env_value().expect("alternative modes have env values"))?;
        }
        f.write_str("STANDARD, or unset)")
    }
}

impl std::error::Error for ParseModeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_env_values() {
        assert_eq!(ComputeMode::FloatToBf16.env_value(), Some("FLOAT_TO_BF16"));
        assert_eq!(ComputeMode::FloatToBf16x2.env_value(), Some("FLOAT_TO_BF16X2"));
        assert_eq!(ComputeMode::FloatToBf16x3.env_value(), Some("FLOAT_TO_BF16X3"));
        assert_eq!(ComputeMode::FloatToTf32.env_value(), Some("FLOAT_TO_TF32"));
        assert_eq!(ComputeMode::Complex3m.env_value(), Some("COMPLEX_3M"));
        assert_eq!(ComputeMode::Standard.env_value(), None);
    }

    #[test]
    fn roundtrip_env_parse() {
        for mode in ComputeMode::ALTERNATIVE {
            let parsed = ComputeMode::from_env_value(mode.env_value().unwrap()).unwrap();
            assert_eq!(parsed, mode);
        }
        assert_eq!(ComputeMode::from_env_value("").unwrap(), ComputeMode::Standard);
        assert_eq!(
            ComputeMode::from_env_value("float_to_bf16").unwrap(),
            ComputeMode::FloatToBf16
        );
        assert!(ComputeMode::from_env_value("FLOAT_TO_FP8").is_err());
    }

    #[test]
    fn parse_error_lists_valid_values() {
        let e = ComputeMode::from_env_value("FLOAT_TO_FP8").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("FLOAT_TO_FP8"), "offending value missing: {msg}");
        for mode in ComputeMode::ALTERNATIVE {
            assert!(msg.contains(mode.env_value().unwrap()), "{msg}");
        }
        assert!(msg.contains("STANDARD"), "{msg}");
    }

    #[test]
    fn labels_parse_too() {
        assert_eq!("BF16x3".parse::<ComputeMode>().unwrap(), ComputeMode::FloatToBf16x3);
        assert_eq!("Complex_3m".parse::<ComputeMode>().unwrap(), ComputeMode::Complex3m);
        assert_eq!("FP32".parse::<ComputeMode>().unwrap(), ComputeMode::Standard);
    }

    #[test]
    fn split_depth_and_products_consistent() {
        // x2 keeps 3 of 4 cross products, x3 keeps 6 of 9.
        assert_eq!(ComputeMode::FloatToBf16x2.component_products(), 3);
        assert_eq!(ComputeMode::FloatToBf16x3.component_products(), 6);
        // Bits per mode, in `ALL` order: 8 per BF16 term, 11 for TF32.
        let bits = ComputeMode::ALL.map(|m| m.effective_mantissa_bits());
        assert_eq!(bits, [24, 8, 16, 24, 11, 24]);
        for mode in ComputeMode::ALL {
            let depth = mode.split_depth().unwrap_or(1);
            assert!(depth <= dcmesh_numerics::split::MAX_SPLIT_DEPTH, "{mode:?}");
        }
    }

    #[test]
    fn escalation_ladder_ends_at_standard() {
        assert_eq!(*ComputeMode::ESCALATION_LADDER.last().unwrap(), ComputeMode::Standard);
        assert_eq!(ComputeMode::Standard.next_stronger(), None);
        assert_eq!(ComputeMode::Complex3m.next_stronger(), Some(ComputeMode::Standard));
        // Walking next_stronger from the weakest rung visits the whole ladder.
        let mut walked = vec![ComputeMode::FloatToBf16];
        while let Some(next) = walked.last().unwrap().next_stronger() {
            walked.push(next);
        }
        assert_eq!(walked, ComputeMode::ESCALATION_LADDER);
        // Ranks strictly increase along the ladder.
        for pair in ComputeMode::ESCALATION_LADDER.windows(2) {
            assert!(pair[0].escalation_rank() < pair[1].escalation_rank());
        }
        assert!(ComputeMode::Complex3m.escalation_rank() < ComputeMode::Standard.escalation_rank());
    }

    #[test]
    fn accuracy_ordering_matches_paper() {
        use ComputeMode::*;
        let bits = |m: ComputeMode| m.effective_mantissa_bits();
        assert!(bits(FloatToBf16) < bits(FloatToTf32));
        assert!(bits(FloatToTf32) < bits(FloatToBf16x2));
        assert!(bits(FloatToBf16x2) < bits(FloatToBf16x3));
        assert_eq!(bits(FloatToBf16x3), bits(Standard));
    }
}
