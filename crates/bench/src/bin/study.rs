//! The reproduction, in one command and with no options.
//!
//! Evaluates every claim of `dcmesh_bench::claims` once, then writes
//! `REPRO.json` (the checked-in record, in the current directory like the
//! `BENCH_*.json` files), `target/reports/study.md` (the same table as
//! markdown, also printed) and the Figure 1/2 series as CSV, and exits 1
//! if any row failed. Paper-scale accuracy runs need GPU-days and the
//! authors' decks and are not offered.
//!
//! ```text
//! cargo run --release -p dcmesh-bench --bin study
//! ```

use dcmesh::analysis::{DeviationPoint, DeviationSeries, Metric};
use dcmesh_bench::claims::{self, Status};
use dcmesh_bench::report::civil_date_utc;
use dcmesh_bench::write_report;
use mkl_lite::ComputeMode;
use std::process::ExitCode;

/// One CSV of a metric's deviation series: a time column, then one column
/// per mode holding `y` of each point.
fn series_csv(
    devs: &[(ComputeMode, DeviationSeries)],
    column_prefix: &str,
    y: impl Fn(&DeviationPoint) -> String,
) -> String {
    let mut csv = String::from("time_fs");
    for (mode, _) in devs {
        csv.push_str(&format!(",{column_prefix}{}", mode.label()));
    }
    csv.push('\n');
    for (i, first) in devs[0].1.points.iter().enumerate() {
        csv.push_str(&format!("{:.6}", first.time_fs));
        for (_, series) in devs {
            csv.push(',');
            csv.push_str(&y(&series.points[i]));
        }
        csv.push('\n');
    }
    csv
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("study takes no arguments: it evaluates every claim, every time");
        return ExitCode::from(2);
    }
    let study = match claims::evaluate() {
        Ok(study) => study,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let today = civil_date_utc();
    let markdown = claims::to_markdown(&study.claims, &today);
    println!("{markdown}");
    std::fs::write("REPRO.json", claims::to_json(&study.claims, &today)).expect("write REPRO.json");
    eprintln!("[wrote REPRO.json]");
    write_report("study.md", &markdown).expect("report");
    for metric in Metric::FIGURE1 {
        let csv =
            series_csv(&study.sweep.deviations(metric), "", |p| format!("{:.8e}", p.abs_deviation));
        write_report(&format!("fig1_{}.csv", metric.name()), &csv).expect("report");
    }
    let log10 =
        |p: &DeviationPoint| format!("{:.4}", p.abs_deviation.max(claims::LOG10_FLOOR).log10());
    let csv = series_csv(&study.sweep.deviations(Metric::Javg), "log10_", log10);
    write_report("fig2_javg_log10.csv", &csv).expect("report");

    let failed: Vec<_> = study.claims.iter().filter(|c| c.status() == Status::Fail).collect();
    for c in &failed {
        eprintln!(
            "FAIL {} ({}): paper {}, ours {:?}, {:?}",
            c.id, c.artifact, c.paper, c.ours, c.check
        );
    }
    eprintln!("{} claims, {} failed", study.claims.len(), failed.len());
    ExitCode::from(claims::exit_code(&study.claims))
}
