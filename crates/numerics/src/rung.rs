//! The instruction-set ladder every SIMD kernel of the workspace is
//! compiled for.
//!
//! A kernel is written once and compiled per rung under
//! `#[target_feature]`; its caller asks [`Rung::at_most`] for the widest
//! rung the CPU runs up to the kernel's own top rung and dispatches on it.
//! Every rung of a kernel runs the same source in the same operation
//! order, so every rung gives the same bits; they differ only in speed.
//! This is the one place that asks the CPU what it has.

/// One rung of the ladder, widest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// `avx512f` (with AVX2 and FMA).
    Avx512f,
    /// `avx2` and `fma`.
    Avx2,
    /// The baseline target.
    Portable,
}

impl Rung {
    /// Every rung, widest first.
    pub const ALL: [Rung; 3] = [Rung::Avx512f, Rung::Avx2, Rung::Portable];

    /// Name for bench headers and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Avx512f => "avx512f",
            Rung::Avx2 => "avx2",
            Rung::Portable => "portable",
        }
    }

    /// Whether this CPU runs the rung. A CPU that runs a rung runs every
    /// rung below it.
    pub fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let available = match self {
            Rung::Avx512f => {
                std::arch::is_x86_feature_detected!("avx512f") && Rung::Avx2.available()
            }
            Rung::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            Rung::Portable => true,
        };
        #[cfg(not(target_arch = "x86_64"))]
        let available = self == Rung::Portable;
        available
    }

    /// The widest rung this CPU runs that is not above `top`.
    pub fn at_most(top: Rung) -> Rung {
        Rung::ALL
            .into_iter()
            .skip_while(|&r| r != top)
            .find(|r| r.available())
            .unwrap_or(Rung::Portable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_most_is_the_widest_available_rung_not_above_top() {
        assert_eq!(Rung::at_most(Rung::Portable), Rung::Portable);
        for (i, top) in Rung::ALL.into_iter().enumerate() {
            let got = Rung::at_most(top);
            assert!(got.available(), "{top:?} gave {got:?}");
            let want = Rung::ALL[i..].iter().copied().find(|r| r.available());
            assert_eq!(Some(got), want, "{top:?}");
        }
        // Availability is downward closed.
        for (i, r) in Rung::ALL.into_iter().enumerate() {
            if r.available() {
                assert!(Rung::ALL[i..].iter().all(|s| s.available()), "{r:?}");
            }
        }
    }
}
