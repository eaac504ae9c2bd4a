//! Result files: what one workload's pass measured (`detail`), and the
//! dated, host-stamped set `run` / `trace` write and `compare` reads.

use crate::report::{Checks, Measured, MetricDef};
use dcmesh_telemetry::json::JsonValue;
use std::collections::BTreeMap;

pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

fn text(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

/// Everything one pass over one workload measured, including what the
/// contract's result line has no room for: sample counts, tail
/// percentiles, per-repeat medians and the names of failed checks.
pub fn detail(
    workload: &str,
    seed: u64,
    seconds: f64,
    wall_s: f64,
    defs: &[MetricDef],
    measured: &Measured,
    checks: &Checks,
) -> JsonValue {
    let metrics: BTreeMap<String, JsonValue> = defs
        .iter()
        .filter_map(|d| {
            let value = *measured.values.get(&d.name)?;
            let mut m = vec![("value", num(value)), ("unit", text(d.unit))];
            if let Some(s) = measured.summaries.get(&d.name) {
                m.push(("n", num(s.n as f64)));
                m.push(("median", num(s.median)));
                if let Some((pct, v)) = s.tail {
                    m.push(("tail_pct", num(pct)));
                    m.push(("tail", num(v)));
                }
            }
            if let Some(r) = measured.repeats.get(&d.name) {
                m.push((
                    "repeats",
                    JsonValue::Array(r.iter().map(|&v| num(v)).collect()),
                ));
            }
            Some((d.name.clone(), obj(m)))
        })
        .collect();
    obj(vec![
        ("workload", text(workload)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("wall_s", num(wall_s)),
        ("attempted", num(checks.attempted as f64)),
        ("failed", num(checks.failed as f64)),
        (
            "failures",
            JsonValue::Array(checks.failures.iter().map(|f| text(f)).collect()),
        ),
        ("metrics", JsonValue::Object(metrics)),
    ])
}

/// `YYYY-MM-DD` (UTC) of a Unix timestamp — days-to-civil, so the
/// benchmark needs no date crate.
pub fn civil_date(unix_secs: u64) -> String {
    let z = (unix_secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The commit the result was taken at, or `unknown` outside a git
/// checkout.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// A full result set: one `run` or `trace` invocation over its workloads.
pub fn result_set(
    kind: &str,
    seed: u64,
    seconds: f64,
    host: JsonValue,
    workloads: BTreeMap<String, JsonValue>,
) -> JsonValue {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    obj(vec![
        ("schema", num(1.0)),
        ("kind", text(kind)),
        ("date", text(&civil_date(now))),
        ("git_commit", text(&git_commit())),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        // A result set states what it claims; the benchmark's own
        // baseline claims nothing.
        ("claim", JsonValue::Null),
        ("host", host),
        ("workloads", JsonValue::Object(workloads)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(951_782_400), "2000-02-29");
        assert_eq!(civil_date(1_790_726_400), "2026-09-30");
        assert_eq!(civil_date(1_790_812_799), "2026-09-30");
    }
}
