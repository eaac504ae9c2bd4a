//! Live precision observatory: the ledger of a run in progress, read
//! from the snapshots its ranks already keep.
//!
//! Every rank process of a sharded run rewrites its exact ledger —
//! every BLAS call folded, nothing sampled — to
//! `trace/ledger-rank<r>-inc<i>.json` at each committed burst, and a
//! single-process run leaves `ledger.json`. [`view`] is one look at such
//! a directory through [`archive::load_ledger`], the reader `profile
//! archive` folds the finished run with, rendered by the
//! `dcmesh_telemetry::ledger` table/Prometheus formatters the in-process
//! ledger uses: the live pane, the end-of-run archive, the sentinel and
//! the advisor read the same rows by the same code. A snapshot is
//! replaced by rename, so a look never sees a torn one, and one file
//! per rank process means a respawned rank adds to its predecessor's
//! committed work instead of replacing it.

use crate::archive;
use dcmesh_telemetry::ledger::{self, Row};
use std::path::Path;

/// One look at a run directory.
pub struct View {
    /// The merged ledger rows, exactly [`archive::collect_run`]'s
    /// `entries` for the directory as it stands.
    pub rows: Vec<Row>,
    /// The rendered dashboard: a status line plus the ledger table.
    pub dashboard: String,
}

/// Reads and renders the run directory's ledger as of now. A directory
/// no rank has written a snapshot to yet is an empty view, not an error.
pub fn view(run_dir: &Path) -> Result<View, String> {
    let (status, rows) = match archive::load_ledger(run_dir)? {
        Some((meta, rows)) => (
            format!(
                "{} row(s), {} call(s), {} rank(s), telemetry {}",
                rows.len(),
                rows.iter().map(|r| r.stats.calls).sum::<u64>(),
                meta.ranks,
                meta.telemetry_level
            ),
            rows,
        ),
        None => ("no ledger snapshot yet".to_string(), Vec::new()),
    };
    let mut dashboard =
        format!("== dcmesh precision observatory — {}: {status} ==\n", run_dir.display());
    if rows.is_empty() {
        dashboard.push_str("(no ledger entries yet)\n");
    } else {
        dashboard.push('\n');
        dashboard.push_str(&ledger::render_rows(&rows));
    }
    Ok(View { rows, dashboard })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcmesh_telemetry::ledger::{rows_json_with_meta, LedgerMeta, ResidualHist, Stats};

    #[test]
    fn watch_rows_equal_archive_entries() {
        let dir = std::env::temp_dir().join(format!("dcmesh-watch-rows-{}", std::process::id()));
        let trace = dir.join("trace");
        std::fs::create_dir_all(&trace).unwrap();
        assert!(view(&dir).unwrap().dashboard.contains("(no ledger entries yet)"));

        let row = |callsite: &str, mode: &str, calls: u64, wall_s: f64, residual: f64| {
            let mut residuals = ResidualHist::default();
            residuals.observe(residual);
            Row {
                callsite: callsite.to_string(),
                shape: "64x64x2048".to_string(),
                mode: mode.to_string(),
                stats: Stats {
                    calls,
                    wall_s,
                    device_s: wall_s / 3.0,
                    device_samples: calls,
                    abft_checks: 1,
                    health_violations: calls % 2,
                    residuals,
                    ..Stats::default()
                },
            }
        };
        // Two ranks; rank 1 was killed after its first process committed
        // some work and its second process finished the rest.
        let snapshots = [
            ("ledger-rank0-inc0.json", vec![row("lfd::nonlocal/cgemm", "FLOAT_TO_BF16", 9, 0.1, 1e-6)]),
            ("ledger-rank1-inc0.json", vec![row("lfd::nonlocal/cgemm", "FLOAT_TO_BF16", 3, 1e-9, 1e-3)]),
            (
                "ledger-rank1-inc1.json",
                vec![
                    row("lfd::nonlocal/cgemm", "FLOAT_TO_BF16", 6, 0.7, 1e-9),
                    row("supervisor/burst", "STANDARD", 0, 0.0, 1.0),
                ],
            ),
        ];
        for (name, rows) in &snapshots {
            let meta = LedgerMeta {
                version: ledger::LEDGER_SCHEMA_VERSION,
                deck_hash: "0x2222222222222222".to_string(),
                ranks: 2,
                telemetry_level: "events".to_string(),
                rows: rows.len() as u64,
            };
            std::fs::write(trace.join(name), rows_json_with_meta(&meta, rows)).unwrap();
        }
        // A snapshot being replaced leaves a temp sibling; it is not one.
        std::fs::write(trace.join("ledger-rank0-inc0.json.wtmp"), "{\"version\":3,").unwrap();

        let seen = view(&dir).expect("view");
        let archived = archive::collect_run(&dir, None).expect("collect").entries;
        assert_eq!(seen.rows.len(), 2);
        assert_eq!(seen.rows.len(), archived.len());
        for (w, a) in seen.rows.iter().zip(&archived) {
            assert_eq!((&w.callsite, &w.shape, &w.mode), (&a.callsite, &a.shape, &a.mode));
            assert_eq!(w.stats.wall_s.to_bits(), a.stats.wall_s.to_bits());
            assert_eq!(w.stats.device_s.to_bits(), a.stats.device_s.to_bits());
            assert_eq!(w.stats, a.stats, "every field, residual histogram included");
        }
        let cgemm = &seen.rows[0].stats;
        assert_eq!(cgemm.calls, 18, "both processes of the killed rank count");
        assert_eq!(cgemm.health_violations, 2);
        assert_eq!(cgemm.abft_checks, 3);
        assert_eq!(cgemm.residuals.count, 3);
        assert_eq!(cgemm.residuals.max, 1e-3);
        assert!(seen.dashboard.contains("2 row(s), 18 call(s), 2 rank(s), telemetry events"));
        assert!(seen.dashboard.contains("lfd::nonlocal/cgemm"));
        assert_eq!(ledger::rows_prometheus(&seen.rows), ledger::rows_prometheus(&archived));
        std::fs::remove_dir_all(&dir).ok();
    }
}
