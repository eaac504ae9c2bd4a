//! The run-record console line.
//!
//! DCMESH "prints to the wall": each QD step emits
//! `ekin epot etot eexc nexc Aext javg` (artifact A2, in that order).
//! [`console_line`] reproduces those lines.

use dcmesh_lfd::StepObservables;

/// Formats one record as a DCMESH-style console line.
pub fn console_line(o: &StepObservables) -> String {
    format!(
        "QD {:>7}  t={:8.4} fs  ekin={:+.8e} epot={:+.8e} etot={:+.8e} eexc={:+.8e} nexc={:+.8e} Aext={:+.6e} javg={:+.8e}",
        o.step, o.time_fs, o.ekin, o.epot, o.etot, o.eexc, o.nexc, o.aext, o.javg
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<StepObservables> {
        (1..=3)
            .map(|i| StepObservables {
                step: i,
                time_fs: i as f64 * 0.001,
                ekin: 1.5 * i as f64,
                epot: -2.0,
                etot: 1.5 * i as f64 - 2.0,
                eexc: 0.01 * i as f64,
                nexc: 0.001 * i as f64,
                aext: 0.1,
                javg: -1e-5 * i as f64,
            })
            .collect()
    }

    #[test]
    fn console_line_has_all_columns() {
        let line = console_line(&sample()[0]);
        for key in ["ekin", "epot", "etot", "eexc", "nexc", "Aext", "javg"] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
    }
}
