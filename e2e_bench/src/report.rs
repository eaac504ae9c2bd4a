//! Metric definitions (the one list `BENCHMARK.json`, the README and the
//! emitted results must agree with), correctness-check accounting, and
//! the result line / result file formats.

use crate::results::obj;
use crate::stats::{floor, summarize, Summary};
use crate::workload::MODES;
use dcmesh_telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric. `bound` is the share of the parent's median by
/// which it may worsen; per-layer metrics have none.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

const STEP_MS_BOUND: f64 = 0.25;
const SWEEP_BOUND: f64 = 0.25;
const EKIN_BOUND: f64 = 0.25;
const RSS_BOUND: f64 = 0.10;
const SETUP_BOUND: f64 = 0.25;

/// The 14 end-to-end metrics, in report order.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    use Better::*;
    let mut defs = vec![def("setup_s", "s", Lower, Some(SETUP_BOUND))];
    for (_, suffix) in MODES {
        defs.push(def(
            format!("step_ms.{suffix}"),
            "ms",
            Lower,
            Some(STEP_MS_BOUND),
        ));
    }
    defs.push(def("sweep_steps_per_s", "1/s", Higher, Some(SWEEP_BOUND)));
    for (_, suffix) in &MODES[1..] {
        defs.push(def(
            format!("ekin_digits.{suffix}"),
            "digits",
            Higher,
            Some(EKIN_BOUND),
        ));
    }
    defs.push(def("peak_rss_mb", "MiB", Lower, Some(RSS_BOUND)));
    defs
}

/// The two modes the traced pass drives itself; only the per-step
/// `lfd.*` and `blas.*` metrics carry their suffix.
pub const TRACED_MODES: [usize; 2] = [0, 3];

/// The per-layer metrics of the traced pass, in report order.
pub fn per_layer_defs() -> Vec<MetricDef> {
    use Better::*;
    let mut defs = Vec::new();
    let per_traced_mode: &[(&str, &'static str, Better)] = &[
        ("lfd.propagate_ms", "ms", Lower),
        ("lfd.nonlocal_ms", "ms", Lower),
        ("lfd.energy_ms", "ms", Lower),
        ("lfd.remap_ms", "ms", Lower),
        ("lfd.shadow_ms", "ms", Lower),
        ("lfd.field_ms", "ms", Lower),
        ("lfd.self_share", "share", Lower),
        ("lfd.propagate_mpts_per_s", "Mpt/s", Higher),
        ("blas.calls_per_step", "count", Lower),
        ("blas.busy_ms_per_step", "ms", Lower),
        ("blas.share", "share", Lower),
        ("blas.gflops", "GFLOP/s", Higher),
        ("blas.grid_gemm_gflops", "GFLOP/s", Higher),
        ("blas.subspace_gemm_us", "us", Lower),
        ("blas.pool_misses", "count", Lower),
        ("blas.pool_hit_ratio", "ratio", Higher),
        ("blas.peak_frac", "ratio", Higher),
    ];
    for &(name, unit, better) in per_traced_mode {
        for m in TRACED_MODES {
            defs.push(def(format!("{name}.{}", MODES[m].1), unit, better, None));
        }
    }
    for (_, suffix) in MODES {
        defs.push(def(format!("gemm.cgemm_us.{suffix}"), "us", Lower, None));
    }
    for (_, suffix) in MODES {
        defs.push(def(
            format!("gemm.cgemm_apply_us.{suffix}"),
            "us",
            Lower,
            None,
        ));
    }
    let single: &[(&str, &'static str, Better)] = &[
        ("gemm.zgemm_us", "us", Lower),
        ("numerics.split3_gbps", "GB/s", Higher),
        ("numerics.round_bf16_gbps", "GB/s", Higher),
        ("linalg.eigh_ms", "ms", Lower),
        ("linalg.cholesky_orth_ms", "ms", Lower),
        ("linalg.lowdin_orth_ms", "ms", Lower),
        ("qxmd.scf_refresh_ms", "ms", Lower),
        ("qxmd.initial_scf_ms", "ms", Lower),
        ("qxmd.scf_share", "share", Lower),
        ("qxmd.md_step_us", "us", Lower),
        ("qxmd.local_potential_ms", "ms", Lower),
        ("core.snapshot_clone_ms", "ms", Lower),
        ("core.ckpt_encode_ms", "ms", Lower),
        ("core.ckpt_save_ms", "ms", Lower),
        ("core.ckpt_load_ms", "ms", Lower),
        ("core.ckpt_bytes", "bytes", Lower),
        ("core.deck_parse_us", "us", Lower),
        ("core.supervisor_ms_per_burst", "ms", Lower),
        ("core.rollbacks", "count", Lower),
        ("core.escalations", "count", Lower),
        ("telemetry.span_ns_off", "ns", Lower),
        ("telemetry.events_per_step", "count", Lower),
        ("telemetry.overhead_pct_events", "%", Lower),
        ("telemetry.overhead_pct_full", "%", Lower),
        ("telemetry.dropped_events", "count", Lower),
        ("telemetry.export_ms", "ms", Lower),
        ("telemetry.ledger_rows", "count", Lower),
        ("abft.checks_per_step", "count", Lower),
        ("abft.overhead_pct", "%", Lower),
        ("xegpu.model_ns_per_call", "ns", Lower),
        ("xegpu.modelled_step_us.standard", "modelled_us", Lower),
        ("xegpu.modelled_step_us.bf16", "modelled_us", Lower),
        ("profile.ingest_mb_per_s", "MB/s", Higher),
        ("profile.table_ms", "ms", Lower),
        ("host.peak_gflops_f32", "GFLOP/s", Higher),
        ("host.stream_gbps", "GB/s", Higher),
        ("host.stream_array_mib", "MiB", Higher),
        ("host.llc_mib", "MiB", Higher),
        ("layers.sum_over_wall", "ratio", Higher),
        ("trace.overhead_pct", "%", Lower),
        ("trace.loop_step_ms.standard", "ms", Lower),
        ("trace.loop_step_ms.bf16x3", "ms", Lower),
    ];
    for &(name, unit, better) in single {
        defs.push(def(name, unit, better, None));
    }
    defs
}

/// Operations attempted = bursts run + checks made; failed = rollbacks,
/// escalations, `RunError`s and failed checks.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// One correctness check, counted as an attempted operation.
    pub fn check(&mut self, name: &str, subject: &str, pass: bool) {
        self.attempted += 1;
        if !pass {
            self.failed += 1;
            self.failures.push(format!("{name}[{subject}]"));
        }
    }

    pub fn bursts(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Rollbacks / escalations / SDC recoveries of one mode-run.
    pub fn incidents(&mut self, subject: &str, n: u64) {
        if n > 0 {
            self.failed += n;
            self.failures
                .push(format!("supervisor-incidents[{subject}] x{n}"));
        }
    }
}

/// Measured values by metric name; timings keep their sample summary for
/// the human-readable report and the result file, and — where the pass
/// repeats itself — one value per repeat, which is the run-to-run spread
/// `compare` judges a change against.
#[derive(Default)]
pub struct Measured {
    pub values: BTreeMap<String, f64>,
    pub summaries: BTreeMap<String, Summary>,
    pub repeats: BTreeMap<String, Vec<f64>>,
}

impl Measured {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a timing by its median, keeping tail and sample count.
    pub fn set_samples(&mut self, name: impl Into<String>, samples: &[f64]) {
        let name = name.into();
        let s = summarize(samples);
        self.values.insert(name.clone(), s.median);
        self.summaries.insert(name, s);
    }

    /// Records an end-to-end timing sampled over several repeats by its
    /// fastest sample ([`crate::stats::floor`] says why) — median, tail
    /// and count are kept for the report — and keeps each repeat's own
    /// fastest sample.
    pub fn set_repeats(&mut self, name: impl Into<String>, by_repeat: &[Vec<f64>]) {
        let name = name.into();
        let pooled = by_repeat.concat();
        self.values.insert(name.clone(), floor(&pooled));
        self.summaries.insert(name.clone(), summarize(&pooled));
        self.repeats
            .insert(name, by_repeat.iter().map(|r| floor(r)).collect());
    }
}

/// The benchmark's last stdout line: exactly `correct`, `attempted`,
/// `failed`, `metrics`, each metric exactly `value` + `unit`. Panics if
/// a declared metric was not measured — that is a harness bug, and a
/// result with a hole in it must not reach a comparison.
pub fn result_line(defs: &[MetricDef], measured: &Measured, checks: &Checks) -> String {
    let metrics: BTreeMap<String, JsonValue> = defs
        .iter()
        .map(|d| {
            let v = *measured
                .values
                .get(&d.name)
                .unwrap_or_else(|| panic!("declared metric {} was not measured", d.name));
            let m = obj(vec![
                ("value", JsonValue::Number(v)),
                ("unit", JsonValue::String(d.unit.to_string())),
            ]);
            (d.name.clone(), m)
        })
        .collect();
    json::dump(&obj(vec![
        ("correct", JsonValue::Bool(checks.failed == 0)),
        ("attempted", JsonValue::Number(checks.attempted as f64)),
        ("failed", JsonValue::Number(checks.failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ]))
}

/// One line per metric: name, median, unit, tail percentile, `n`.
pub fn human_table(defs: &[MetricDef], measured: &Measured) -> String {
    let mut out = String::new();
    for d in defs {
        let Some(v) = measured.values.get(&d.name) else {
            continue;
        };
        let detail = match measured.summaries.get(&d.name) {
            Some(Summary {
                median,
                tail: Some((p, t)),
                n,
            }) => {
                format!("median {median:.4}  p{p} {t:.4}  n={n}")
            }
            Some(Summary {
                median,
                tail: None,
                n,
            }) => format!("median {median:.4}  n={n}"),
            None => "n=1".to_string(),
        };
        out.push_str(&format!(
            "{:<34} {:>14.5} {:<12} {:<7} {}\n",
            d.name,
            v,
            d.unit,
            d.better.as_str(),
            detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_fit_the_charset_and_the_caps() {
        let e2e = end_to_end_defs();
        let layer = per_layer_defs();
        assert_eq!(e2e.len(), 14);
        assert!(layer.len() <= 128, "{} per-layer metrics", layer.len());
        let mut seen = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layer) {
            assert!(name_ok(&d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {:?}", d.name);
            assert!(
                d.unit.len() <= 16 && !d.unit.is_empty(),
                "bad unit {:?}",
                d.unit
            );
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        for w in &crate::workload::WORKLOADS {
            assert!(name_ok(w.name), "bad workload name {:?}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        assert!(!name_ok(".hidden") && !name_ok("a b") && !name_ok("µs") && !name_ok(""));
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics are bounded");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(layer.iter().all(|d| d.bound.is_none()));
    }

    /// The names the harness emits are the names `BENCHMARK.json`
    /// declares — the file is what the driver reads, the code is what
    /// runs, and nothing else keeps them in step.
    #[test]
    fn declared_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = match &doc {
            JsonValue::Object(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );

        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .to_vec()
        };
        let field =
            |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).expect(k).to_string();
        for (key, defs) in [
            ("end_to_end", end_to_end_defs()),
            ("per_layer", per_layer_defs()),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key} length");
            for (got, want) in declared.iter().zip(&defs) {
                assert_eq!(field(got, "name"), want.name);
                assert_eq!(field(got, "unit"), want.unit, "{}", want.name);
                assert_eq!(field(got, "better"), want.better.as_str(), "{}", want.name);
                assert_eq!(
                    got.get("bound").and_then(JsonValue::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&crate::workload::WORKLOADS) {
            assert_eq!(field(got, "name"), want.name);
            assert_eq!(field(got, "why"), want.why);
        }
        let paths: Vec<String> = list("paths")
            .iter()
            .map(|p| p.as_str().expect("path").to_string())
            .collect();
        assert_eq!(paths, ["e2e_bench"]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = vec![def("a.b", "ms", Better::Lower, None)];
        let mut m = Measured::default();
        m.set_samples("a.b", &[3.0, 1.0, 2.0]);
        let mut checks = Checks::default();
        checks.bursts(2);
        checks.check("finite", "standard", true);
        let line = result_line(&defs, &m, &checks);
        assert_eq!(
            line,
            r#"{"attempted":3,"correct":true,"failed":0,"metrics":{"a.b":{"unit":"ms","value":2}}}"#
        );
        checks.check("finite", "bf16", false);
        checks.incidents("bf16", 2);
        assert_eq!((checks.attempted, checks.failed), (4, 3));
        assert!(result_line(&defs, &m, &checks).contains(r#""correct":false"#));
        assert!(human_table(&defs, &m).contains("n=3"));
    }
}
