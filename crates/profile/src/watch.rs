//! Live precision observatory: tail event streams mid-run and render
//! the merged per-callsite ledger as it evolves.
//!
//! A supervised run (or each rank of a sharded one) appends telemetry
//! to `events*.jsonl` as bursts commit. [`WatchSession`] tails any
//! number of those streams — re-scanning a run directory each tick so
//! ranks that appear late (respawns, slow starts) are picked up —
//! feeds the new bytes through a per-stream [`StreamingIngester`], and
//! folds the closed spans and instants into a merged ledger keyed by
//! (callsite, shape-class, mode). The result renders through the same
//! `dcmesh_telemetry::ledger` table/Prometheus formatters the
//! in-process ledger uses, so a live `profile watch` pane and the
//! end-of-run `ledger.json` speak one schema.
//!
//! The stream-derived ledger is an *estimate* of the in-process one:
//! BLAS spans are 1-in-N sampled, so call counts and times are
//! `sample_weight`-rescaled expectations, while escalation / rollback /
//! ABFT-violation instants are unsampled and therefore exact.

use crate::ingest::StreamingIngester;
use dcmesh_telemetry::ledger::{self, Row, Stats};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One tailed stream: a file we re-open each tick and read from the
/// last observed offset, carrying any torn final line until its
/// newline arrives.
struct Tail {
    path: PathBuf,
    /// Bytes fully consumed (complete lines fed to the ingester).
    offset: u64,
    /// Bytes after the last newline — a line still being written.
    partial: Vec<u8>,
    ingester: StreamingIngester,
}

impl Tail {
    fn new(path: PathBuf) -> Tail {
        Tail { path, offset: 0, partial: Vec::new(), ingester: StreamingIngester::new() }
    }

    /// Reads everything new since the last poll and feeds the complete
    /// lines. Returns the number of lines fed. A vanished or
    /// not-yet-created file is simply "no new data"; a file that
    /// *shrank* was restarted by its writer (a respawned rank begins a
    /// fresh stream), so the tail rewinds and re-reads it.
    fn poll(&mut self) -> u64 {
        let Ok(mut f) = std::fs::File::open(&self.path) else { return 0 };
        let consumed = self.offset + self.partial.len() as u64;
        if f.metadata().map(|m| m.len() < consumed).unwrap_or(false) {
            self.offset = 0;
            self.partial.clear();
            self.ingester = StreamingIngester::new();
        }
        if f.seek(SeekFrom::Start(self.offset + self.partial.len() as u64)).is_err() {
            return 0;
        }
        let mut buf = Vec::new();
        if f.read_to_end(&mut buf).is_err() || buf.is_empty() {
            return 0;
        }
        self.partial.extend_from_slice(&buf);
        let mut fed = 0;
        while let Some(nl) = self.partial.iter().position(|&b| b == b'\n') {
            let rest = self.partial.split_off(nl + 1);
            let line_bytes = std::mem::replace(&mut self.partial, rest);
            self.offset += line_bytes.len() as u64;
            let line = String::from_utf8_lossy(&line_bytes[..line_bytes.len() - 1]);
            self.ingester.feed_line(&line);
            fed += 1;
        }
        fed
    }
}

/// Merged stream-derived ledger across every tailed rank.
#[derive(Default)]
pub struct WatchLedger {
    groups: BTreeMap<(String, String, String), WatchAcc>,
}

#[derive(Default)]
struct WatchAcc {
    calls: f64,
    wall_s: f64,
    device_s: f64,
    device_samples: f64,
    escalations: u64,
    rollbacks: u64,
    nonfinite_outputs: u64,
    abft_violations: u64,
}

impl WatchLedger {
    fn entry(&mut self, callsite: String, shape: String, mode: String) -> &mut WatchAcc {
        self.groups.entry((callsite, shape, mode)).or_default()
    }

    /// Folds one closed span in: BLAS call spans (those carrying
    /// `m`/`n`/`k`/`mode` attributes) contribute weighted call counts
    /// and times under their `callsite` attribute.
    pub fn add_span(&mut self, span: &crate::ingest::Span) {
        let (Some(m), Some(n), Some(k), Some(mode)) = (
            span.attr_f64("m"),
            span.attr_f64("n"),
            span.attr_f64("k"),
            span.attr_str("mode"),
        ) else {
            return;
        };
        let callsite = span
            .attr_str("callsite")
            .map(str::to_string)
            .unwrap_or_else(|| format!("app/{}", span.name.to_lowercase()));
        let shape = ledger::shape_class(m as usize, n as usize, k as usize);
        let mode = mode.to_string();
        let wall = span.attr_f64("wall_s").unwrap_or(span.dur_ns() as f64 / 1e9);
        let device = span.attr_f64("device_s");
        let acc = self.entry(callsite, shape, mode);
        acc.calls += span.weight;
        acc.wall_s += wall * span.weight;
        if let Some(d) = device {
            acc.device_s += d * span.weight;
            acc.device_samples += span.weight;
        }
    }

    /// Folds one instant in: escalations, rollbacks, ABFT violations
    /// and non-finite outputs each bump their attributed row.
    pub fn add_instant(&mut self, ev: &crate::ingest::InstantEvent) {
        let attr = |key: &str| ev.attrs.get(key).and_then(|v| v.as_str());
        match ev.name.as_str() {
            "escalation" => {
                let mode = attr("from").unwrap_or("-").to_string();
                self.entry("supervisor/burst".into(), "-".into(), mode).escalations += 1;
            }
            "rollback" => {
                let mode = attr("mode").unwrap_or("-").to_string();
                self.entry("supervisor/burst".into(), "-".into(), mode).rollbacks += 1;
            }
            "abft_violation" => {
                let callsite = attr("callsite")
                    .map(str::to_string)
                    .unwrap_or_else(|| "app/abft".to_string());
                let mode = attr("mode").unwrap_or("-").to_string();
                self.entry(callsite, "-".into(), mode).abft_violations += 1;
            }
            "nonfinite_output" => {
                let callsite = attr("callsite")
                    .map(str::to_string)
                    .unwrap_or_else(|| "app/nonfinite".to_string());
                let mode = attr("mode").unwrap_or("-").to_string();
                self.entry(callsite, "-".into(), mode).nonfinite_outputs += 1;
            }
            _ => {}
        }
    }

    /// The merged rows in `dcmesh_telemetry::ledger` form, ready for
    /// [`ledger::render_rows`] / [`ledger::rows_prometheus`].
    pub fn rows(&self) -> Vec<Row> {
        self.groups
            .iter()
            .map(|((callsite, shape, mode), acc)| Row {
                callsite: callsite.clone(),
                shape: shape.clone(),
                mode: mode.clone(),
                stats: Stats {
                    calls: acc.calls.round() as u64,
                    wall_s: acc.wall_s,
                    device_s: acc.device_s,
                    device_samples: acc.device_samples.round() as u64,
                    escalations: acc.escalations,
                    rollbacks: acc.rollbacks,
                    nonfinite_outputs: acc.nonfinite_outputs,
                    abft_violations: acc.abft_violations,
                    ..Stats::default()
                },
            })
            .collect()
    }
}

/// A live watch over one or more event streams.
pub struct WatchSession {
    /// Directory to re-scan for `events*.jsonl` each tick, when the
    /// watch target is a run directory.
    scan_dirs: Vec<PathBuf>,
    tails: Vec<Tail>,
    ledger: WatchLedger,
    /// Total lines fed across all streams.
    pub lines_fed: u64,
}

/// True for file names the run layer writes event streams to:
/// `events.jsonl`, `events-rank3.jsonl`, `events-coord.jsonl`.
fn is_event_stream(name: &str) -> bool {
    name.starts_with("events") && name.ends_with(".jsonl")
}

impl WatchSession {
    /// A session over explicit stream files and/or run directories.
    /// Directories are re-scanned on every [`tick`](Self::tick): both
    /// the directory itself and its `trace/` subdirectory are checked
    /// for `events*.jsonl`, so per-rank streams that appear mid-run
    /// (respawned ranks) are picked up automatically.
    pub fn new(targets: &[String]) -> WatchSession {
        let mut s = WatchSession {
            scan_dirs: Vec::new(),
            tails: Vec::new(),
            ledger: WatchLedger::default(),
            lines_fed: 0,
        };
        for t in targets {
            let p = PathBuf::from(t);
            if p.is_dir() {
                s.scan_dirs.push(p.clone());
                s.scan_dirs.push(p.join("trace"));
            } else {
                s.add_stream(p);
            }
        }
        s
    }

    fn add_stream(&mut self, path: PathBuf) {
        if self.tails.iter().any(|t| t.path == path) {
            return;
        }
        self.tails.push(Tail::new(path));
    }

    fn rescan(&mut self) {
        let mut found: Vec<PathBuf> = Vec::new();
        for dir in &self.scan_dirs {
            let Ok(entries) = std::fs::read_dir(dir) else { continue };
            for e in entries.flatten() {
                let name = e.file_name();
                if is_event_stream(&name.to_string_lossy()) {
                    found.push(e.path());
                }
            }
        }
        found.sort();
        for p in found {
            self.add_stream(p);
        }
    }

    /// One poll cycle: rescan directories, drain new lines from every
    /// stream, fold the closed records into the merged ledger. Returns
    /// the number of lines consumed this tick.
    pub fn tick(&mut self) -> u64 {
        self.rescan();
        let mut fed = 0;
        for tail in &mut self.tails {
            fed += tail.poll();
            for span in tail.ingester.take_closed_spans() {
                self.ledger.add_span(&span);
            }
            for ev in tail.ingester.take_closed_instants() {
                self.ledger.add_instant(&ev);
            }
            // Device slices are folded into spans via their `device_s`
            // attributes; drain to keep memory bounded.
            tail.ingester.take_closed_device();
        }
        self.lines_fed += fed;
        fed
    }

    /// The merged ledger rows at this instant.
    pub fn rows(&self) -> Vec<Row> {
        self.ledger.rows()
    }

    /// Per-stream status lines: path, bytes consumed, rank when known.
    pub fn stream_status(&self) -> Vec<String> {
        self.tails
            .iter()
            .map(|t| {
                let meta = t.ingester.meta();
                let rank = if meta.present { format!("rank {}", meta.rank) } else { "rank ?".into() };
                format!("{} ({rank}, {} bytes)", t.path.display(), t.offset)
            })
            .collect()
    }

    /// Renders the dashboard: stream roster plus the merged ledger
    /// table, through the shared `ledger` renderer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== dcmesh precision observatory — {} stream(s), {} line(s) ==\n",
            self.tails.len(),
            self.lines_fed
        ));
        for s in self.stream_status() {
            out.push_str("  ");
            out.push_str(&s);
            out.push('\n');
        }
        let rows = self.rows();
        if rows.is_empty() {
            out.push_str("(no ledger entries yet)\n");
        } else {
            out.push('\n');
            out.push_str(&ledger::render_rows(&rows));
        }
        out
    }

    /// The merged ledger as a Prometheus scrape body.
    pub fn prometheus(&self) -> String {
        ledger::rows_prometheus(&self.rows())
    }
}

/// Writes `text` to `path` via a sibling temp file and rename, so a
/// concurrent scraper never reads a half-written body.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(kind: &str, name: &str, ts: u64, extra: &str) -> String {
        format!(
            "{{\"seq\":0,\"ts_ns\":{ts},\"kind\":\"{kind}\",\"name\":\"{name}\",\
             \"track\":\"host\",\"tid\":0,\"args\":{{{extra}}}}}\n"
        )
    }

    fn demo_stream() -> String {
        [
            line(
                "i",
                "telemetry_meta",
                0,
                "\"run_epoch\":100,\"rank\":2,\"sample_n\":1",
            ),
            line(
                "B",
                "CGEMM",
                10,
                "\"callsite\":\"lfd::eigensolve/cgemm\",\"m\":64,\"n\":64,\"k\":64,\
                 \"mode\":\"FLOAT_TO_BF16\"",
            ),
            line("E", "CGEMM", 20, "\"wall_s\":0.25"),
            line("i", "escalation", 30, "\"from\":\"FLOAT_TO_BF16\",\"to\":\"STANDARD\""),
            line("i", "rollback", 30, "\"step\":4,\"mode\":\"FLOAT_TO_BF16\""),
        ]
        .concat()
    }

    #[test]
    fn tailed_stream_builds_ledger_rows() {
        let dir = std::env::temp_dir().join("dcmesh_watch_test_a");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events-rank2.jsonl");
        std::fs::write(&path, demo_stream()).unwrap();

        let mut s = WatchSession::new(&[dir.to_string_lossy().to_string()]);
        s.tick();
        let rows = s.rows();
        let gemm = rows
            .iter()
            .find(|r| r.callsite == "lfd::eigensolve/cgemm")
            .expect("gemm row");
        assert_eq!(gemm.shape, "64x64x64");
        assert_eq!(gemm.mode, "FLOAT_TO_BF16");
        assert_eq!(gemm.stats.calls, 1);
        assert!((gemm.stats.wall_s - 0.25).abs() < 1e-12);
        let sup = rows
            .iter()
            .find(|r| r.callsite == "supervisor/burst" && r.mode == "FLOAT_TO_BF16")
            .expect("supervisor row");
        assert_eq!(sup.stats.escalations, 1);
        assert_eq!(sup.stats.rollbacks, 1);
        assert!(s.render().contains("lfd::eigensolve/cgemm"));
        assert!(s.prometheus().contains("dcmesh_ledger_escalations_total"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_writes_wait_for_the_newline() {
        let dir = std::env::temp_dir().join("dcmesh_watch_test_b");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let full = demo_stream();
        // First write stops mid-line; the tail must hold the fragment.
        let cut = full.len() - 20;
        std::fs::write(&path, &full[..cut]).unwrap();
        let mut s = WatchSession::new(&[path.to_string_lossy().to_string()]);
        s.tick();
        let before = s.rows();
        assert!(before
            .iter()
            .all(|r| !(r.callsite == "supervisor/burst" && r.stats.rollbacks > 0)));
        // The rest of the stream arrives; the torn line completes.
        std::fs::write(&path, &full).unwrap();
        s.tick();
        let after = s.rows();
        assert!(after
            .iter()
            .any(|r| r.callsite == "supervisor/burst" && r.stats.rollbacks == 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
