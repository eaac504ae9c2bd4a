//! Per-call-site precision policies.
//!
//! The paper's study is limited to one compute mode per process, "because
//! the Intel MKL controls are environment variables affecting the library
//! as a whole ... The effects of running different BLAS calls at
//! different levels of precision is left to future work" (§IV-D). A
//! library-level mode control removes that limitation: this module names
//! the nine BLAS call sites of a QD step and lets each carry its own
//! compute mode. The `study` claims table's `policy.*` rows
//! (`dcmesh_bench::claims`, "Per-callsite policy") record the accuracy
//! and modelled speedup of a few such policies — the design space the
//! paper could not explore.

use mkl_lite::{with_compute_mode, ComputeMode};

/// The nine BLAS call sites of one QD step, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum CallSite {
    /// `nlp_prop` projection `C = Ψ†(0)Ψ·ΔV` (grid-sized).
    NlpProject = 0,
    /// `nlp_prop` subspace phase `C ← D·C`.
    NlpPhase = 1,
    /// `nlp_prop` expansion `Ψ += Ψ(0)·C` (grid-sized).
    NlpExpand = 2,
    /// `calc_energy` kinetic subspace `M = Ψ†(TΨ)·ΔV` (grid-sized).
    EnergyKinetic = 3,
    /// `calc_energy` nonlocal subspace transform.
    EnergyNonlocal = 4,
    /// `calc_energy` excitation-energy subspace transform.
    EnergyEexc = 5,
    /// `remap_occ` projection (the Table VII GEMM).
    RemapProjection = 6,
    /// `remap_occ` weight matrix `W = R†R`.
    RemapWeights = 7,
    /// Shadow-dynamics update `S = C†C`.
    ShadowUpdate = 8,
}

/// Number of call sites.
pub const N_CALL_SITES: usize = 9;

impl CallSite {
    /// All sites in execution order.
    pub const ALL: [CallSite; N_CALL_SITES] = [
        CallSite::NlpProject,
        CallSite::NlpPhase,
        CallSite::NlpExpand,
        CallSite::EnergyKinetic,
        CallSite::EnergyNonlocal,
        CallSite::EnergyEexc,
        CallSite::RemapProjection,
        CallSite::RemapWeights,
        CallSite::ShadowUpdate,
    ];

    /// The sites that move the propagated state (errors here feed back
    /// into the trajectory); the rest only affect measured observables.
    pub fn affects_trajectory(self) -> bool {
        matches!(self, CallSite::NlpProject | CallSite::NlpPhase | CallSite::NlpExpand)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CallSite::NlpProject => "nlp_project",
            CallSite::NlpPhase => "nlp_phase",
            CallSite::NlpExpand => "nlp_expand",
            CallSite::EnergyKinetic => "energy_kinetic",
            CallSite::EnergyNonlocal => "energy_nonlocal",
            CallSite::EnergyEexc => "energy_eexc",
            CallSite::RemapProjection => "remap_projection",
            CallSite::RemapWeights => "remap_weights",
            CallSite::ShadowUpdate => "shadow_update",
        }
    }
}

/// A precision policy: which compute mode each call site runs in.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum PrecisionPolicy {
    /// Use whatever mode is globally active (the paper's env-var
    /// behaviour — one mode for the whole process).
    #[default]
    Ambient,
    /// An explicit mode per call site.
    PerSite([ComputeMode; N_CALL_SITES]),
}

impl PrecisionPolicy {
    /// Every site at the same explicit mode.
    pub fn uniform(mode: ComputeMode) -> PrecisionPolicy {
        PrecisionPolicy::PerSite([mode; N_CALL_SITES])
    }

    /// The "fast propagation" policy: the accelerated mode on the
    /// trajectory-moving sites, FP32 on every measurement site, so the
    /// printed observables are computed at full single precision while
    /// the expensive propagation GEMMs take the speedup.
    pub fn fast_propagation(mode: ComputeMode) -> PrecisionPolicy {
        let mut sites = [ComputeMode::Standard; N_CALL_SITES];
        for s in CallSite::ALL {
            if s.affects_trajectory() {
                sites[s as usize] = mode;
            }
        }
        PrecisionPolicy::PerSite(sites)
    }

    /// The "safe observables" policy: accelerated everywhere except the
    /// three observable-producing subspace reductions.
    pub fn safe_observables(mode: ComputeMode) -> PrecisionPolicy {
        let mut sites = [mode; N_CALL_SITES];
        for s in [CallSite::EnergyKinetic, CallSite::RemapProjection, CallSite::RemapWeights] {
            sites[s as usize] = ComputeMode::Standard;
        }
        PrecisionPolicy::PerSite(sites)
    }

    /// Overrides one site, returning the modified policy (Ambient is
    /// first concretised at `Standard` for the remaining sites).
    pub fn with_site(self, site: CallSite, mode: ComputeMode) -> PrecisionPolicy {
        let mut sites = match self {
            PrecisionPolicy::Ambient => [ComputeMode::Standard; N_CALL_SITES],
            PrecisionPolicy::PerSite(s) => s,
        };
        sites[site as usize] = mode;
        PrecisionPolicy::PerSite(sites)
    }

    /// The mode a site will run in, or `None` for Ambient (decided at
    /// call time by the global configuration).
    pub fn mode_for(&self, site: CallSite) -> Option<ComputeMode> {
        match self {
            PrecisionPolicy::Ambient => None,
            PrecisionPolicy::PerSite(sites) => Some(sites[site as usize]),
        }
    }

    /// Runs `f` with the site's mode in effect.
    pub fn run<R>(&self, site: CallSite, f: impl FnOnce() -> R) -> R {
        match self.mode_for(site) {
            None => f(),
            Some(mode) => with_compute_mode(mode, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_defers_to_global_mode() {
        let p = PrecisionPolicy::Ambient;
        assert_eq!(p.mode_for(CallSite::NlpProject), None);
        mkl_lite::with_compute_mode(ComputeMode::FloatToTf32, || {
            let seen = p.run(CallSite::NlpProject, mkl_lite::compute_mode);
            assert_eq!(seen, ComputeMode::FloatToTf32);
        });
    }

    #[test]
    fn per_site_policy_overrides_global() {
        let p = PrecisionPolicy::uniform(ComputeMode::FloatToBf16);
        mkl_lite::with_compute_mode(ComputeMode::Standard, || {
            let seen = p.run(CallSite::EnergyKinetic, mkl_lite::compute_mode);
            assert_eq!(seen, ComputeMode::FloatToBf16);
            // ... and restores afterwards.
            assert_eq!(mkl_lite::compute_mode(), ComputeMode::Standard);
        });
    }

    #[test]
    fn fast_propagation_splits_sites() {
        let p = PrecisionPolicy::fast_propagation(ComputeMode::FloatToBf16);
        assert_eq!(p.mode_for(CallSite::NlpProject), Some(ComputeMode::FloatToBf16));
        assert_eq!(p.mode_for(CallSite::NlpExpand), Some(ComputeMode::FloatToBf16));
        assert_eq!(p.mode_for(CallSite::EnergyKinetic), Some(ComputeMode::Standard));
        assert_eq!(p.mode_for(CallSite::RemapProjection), Some(ComputeMode::Standard));
    }

    #[test]
    fn safe_observables_protects_measurements() {
        let p = PrecisionPolicy::safe_observables(ComputeMode::FloatToBf16);
        assert_eq!(p.mode_for(CallSite::NlpProject), Some(ComputeMode::FloatToBf16));
        assert_eq!(p.mode_for(CallSite::EnergyKinetic), Some(ComputeMode::Standard));
        assert_eq!(p.mode_for(CallSite::RemapWeights), Some(ComputeMode::Standard));
        assert_eq!(p.mode_for(CallSite::ShadowUpdate), Some(ComputeMode::FloatToBf16));
    }

    #[test]
    fn with_site_builder() {
        let p = PrecisionPolicy::Ambient
            .with_site(CallSite::NlpExpand, ComputeMode::FloatToTf32);
        assert_eq!(p.mode_for(CallSite::NlpExpand), Some(ComputeMode::FloatToTf32));
        assert_eq!(p.mode_for(CallSite::NlpProject), Some(ComputeMode::Standard));
    }

    #[test]
    fn site_classification() {
        let traj: Vec<_> = CallSite::ALL.iter().filter(|s| s.affects_trajectory()).collect();
        assert_eq!(traj.len(), 3);
        // Names unique.
        let mut names: Vec<_> = CallSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_CALL_SITES);
    }
}
