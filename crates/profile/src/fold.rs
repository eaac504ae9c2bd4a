//! Collapsed-stack folding: the span forest as `a;b;c <ns>` lines.
//!
//! The output format is the Brendan-Gregg collapsed-stack convention
//! consumed by `inferno` / `flamegraph.pl`: one line per unique stack,
//! frames joined by `;`, a space, and an integer count. Counts here are
//! **self nanoseconds** — each span contributes its `self_ns`.
//!
//! Grouping options decorate leaf frames with the precision mode
//! (`CGEMM[FLOAT_TO_BF16]`) and/or the GEMM shape (`CGEMM(128x896x4096)`)
//! so per-mode and per-shape cost splits show up as separate flame towers,
//! the view the paper's Figure 3 takes.

use crate::ingest::{Span, Trace};
use std::collections::BTreeMap;

/// Folding configuration.
#[derive(Clone, Debug, Default)]
pub struct FoldOptions {
    /// Keep only trees rooted at this span name (e.g. `burst`), so the
    /// flame root total equals the summed duration of those spans.
    pub root: Option<String>,
    /// Decorate leaf frames with the `mode` attribute.
    pub by_mode: bool,
    /// Decorate leaf frames with the `m`/`n`/`k` attributes.
    pub by_shape: bool,
}

/// Folded stacks: canonical stack string → self nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Folded {
    /// `a;b;c` → ns.
    pub lines: BTreeMap<String, f64>,
}

impl Folded {
    /// Total nanoseconds across all stacks.
    pub fn total_ns(&self) -> f64 {
        self.lines.values().sum()
    }

    /// Renders the collapsed-stack text (sorted, deterministic), with
    /// integer counts as the downstream tools expect.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (stack, ns) in &self.lines {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&format!("{}\n", ns.round() as u64));
        }
        out
    }
}

/// The frame label for `span`, with optional mode/shape decoration.
fn frame_label(span: &Span, opts: &FoldOptions) -> String {
    let mut label = span.name.clone();
    if opts.by_mode {
        if let Some(mode) = span.attr_str("mode") {
            label.push_str(&format!("[{mode}]"));
        }
    }
    if opts.by_shape {
        if let (Some(m), Some(n), Some(k)) =
            (span.attr_f64("m"), span.attr_f64("n"), span.attr_f64("k"))
        {
            label.push_str(&format!("({m}x{n}x{k})"));
        }
    }
    label
}

/// True when the span belongs to a tree rooted at `root`.
fn under_root(span: &Span, root: &str) -> bool {
    span.stack.first().map(String::as_str) == Some(root)
        || (span.stack.is_empty() && span.name == root)
}

/// Incremental folding: feed spans one at a time (streaming ingestion)
/// and take the [`Folded`] result at the end. [`fold`] is the batch
/// wrapper over this, so both paths produce identical output.
#[derive(Clone, Debug, Default)]
pub struct FoldAccum {
    opts: FoldOptions,
    folded: Folded,
}

impl FoldAccum {
    /// An empty accumulator with the given options.
    pub fn new(opts: FoldOptions) -> Self {
        FoldAccum { opts, folded: Folded::default() }
    }

    /// Folds one span in.
    pub fn add(&mut self, span: &Span) {
        if let Some(root) = &self.opts.root {
            if !under_root(span, root) {
                return;
            }
        }
        if span.self_ns == 0 {
            return;
        }
        let mut stack = span.stack.join(";");
        if !stack.is_empty() {
            stack.push(';');
        }
        stack.push_str(&frame_label(span, &self.opts));
        *self.folded.lines.entry(stack).or_insert(0.0) += span.self_ns as f64;
    }

    /// The folded result so far.
    pub fn finish(self) -> Folded {
        self.folded
    }
}

/// Folds a trace into collapsed stacks of self time.
pub fn fold(trace: &Trace, opts: &FoldOptions) -> Folded {
    let mut acc = FoldAccum::new(opts.clone());
    for span in &trace.spans {
        acc.add(span);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::ingest_jsonl;

    fn line(kind: &str, name: &str, ts: u64, extra: &str) -> String {
        format!(
            "{{\"seq\":0,\"ts_ns\":{ts},\"kind\":\"{kind}\",\"name\":\"{name}\",\
             \"track\":\"host\",\"tid\":0,\"args\":{{{extra}}}}}"
        )
    }

    fn demo_trace() -> Trace {
        ingest_jsonl(
            &[
                line("B", "initial_scf", 0, ""),
                line("E", "initial_scf", 50, ""),
                line("B", "burst", 100, ""),
                line("B", "qd_step", 110, ""),
                line("B", "CGEMM", 120, "\"mode\":\"FLOAT_TO_BF16\",\"m\":8,\"n\":4,\"k\":2"),
                line("E", "CGEMM", 150, ""),
                line("E", "qd_step", 180, ""),
                line("E", "burst", 200, ""),
            ]
            .join("\n"),
        )
    }

    #[test]
    fn folds_self_time_per_stack() {
        let folded = fold(&demo_trace(), &FoldOptions::default());
        assert_eq!(folded.lines.get("burst;qd_step;CGEMM"), Some(&30.0));
        assert_eq!(folded.lines.get("burst;qd_step"), Some(&40.0), "70 incl - 30 child");
        assert_eq!(folded.lines.get("burst"), Some(&30.0), "100 incl - 70 child");
        assert_eq!(folded.lines.get("initial_scf"), Some(&50.0));
        // Inclusive root total is recoverable: 30+40+20 = burst's 100ns.
        let burst_total: f64 = folded
            .lines
            .iter()
            .filter(|(k, _)| k.starts_with("burst"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(burst_total, 100.0);
    }

    #[test]
    fn root_filter_excludes_other_trees() {
        let folded =
            fold(&demo_trace(), &FoldOptions { root: Some("burst".into()), ..Default::default() });
        assert!(folded.lines.keys().all(|k| k.starts_with("burst")));
        assert_eq!(folded.total_ns(), 100.0);
    }

    #[test]
    fn mode_and_shape_decorate_leaves() {
        let opts = FoldOptions { by_mode: true, by_shape: true, ..Default::default() };
        let folded = fold(&demo_trace(), &opts);
        assert!(
            folded.lines.contains_key("burst;qd_step;CGEMM[FLOAT_TO_BF16](8x4x2)"),
            "{:?}",
            folded.lines.keys().collect::<Vec<_>>()
        );
    }
}
