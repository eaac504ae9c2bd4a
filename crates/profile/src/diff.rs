//! Differential (red/blue) flamegraphs: two folded profiles compared
//! frame by frame.
//!
//! The classic before/after question — "which frames got slower when we
//! switched compute modes / changed the kernel?" — answered in the
//! Brendan Gregg differential-flamegraph convention: the layout (frame
//! widths) comes from the **test** profile, while the colour encodes the
//! per-frame change against the **base** profile. Red = the frame grew
//! (regression), blue = it shrank (improvement), near-white = unchanged.
//! Intensity scales with the delta's share of the largest observed
//! delta, on a square-root ramp so small-but-real changes stay visible.
//!
//! Frames present only in the base (they vanished entirely) have zero
//! width in the test layout and therefore do not appear in the SVG —
//! the standard limitation of the layout-from-test convention. The ANSI
//! renderer and the two-count collapsed output show them regardless, so
//! no delta is silently dropped.
//!
//! The two-count collapsed text ([`to_collapsed_diff`]) is the
//! `difffolded.pl` format (`stack base_ns test_ns`), consumable by the
//! external flamegraph toolchain as well.
//!
//! Tree, layout and both renderers are [`crate::flame`]'s; this module
//! adds the base side of the tree and the red/blue paint.

use crate::flame::{self, Frame, Paint};
use crate::fold::Folded;
use std::collections::BTreeMap;

impl Frame {
    /// Signed inclusive change, test − base (positive = regression).
    pub fn delta_ns(&self) -> f64 {
        self.total_ns - self.base_total_ns
    }

    /// Largest |delta| in the subtree — the colour normaliser.
    fn max_abs_delta(&self) -> f64 {
        self.children
            .values()
            .map(Frame::max_abs_delta)
            .fold(self.delta_ns().abs(), f64::max)
    }
}

/// Builds the union flame tree of two folded sets: the test profile's
/// tree ([`flame::build_tree`]) with the base's stacks counted on each
/// frame's base side. The returned root is the synthetic `all` frame;
/// its two totals are the two grand totals.
pub fn build_diff_tree(base: &Folded, test: &Folded) -> Frame {
    let mut root = flame::build_tree(test);
    root.add_stacks(base, |f| (&mut f.base_self_ns, &mut f.base_total_ns));
    root
}

/// `+1.234 ms (+5.6%)`-style delta description; the percentage is
/// relative to the base (absent when the frame is new).
fn delta_text(frame: &Frame) -> String {
    let d = frame.delta_ns();
    if frame.base_total_ns > 0.0 {
        format!("{:+.3} ms ({:+.1}%)", d / 1e6, 100.0 * d / frame.base_total_ns)
    } else {
        format!("{:+.3} ms (new)", d / 1e6)
    }
}

/// The differential paint: colour by each frame's change against the
/// base, scaled to the largest change in the tree.
struct Delta {
    max_abs: f64,
}

impl Paint for Delta {
    const RECT_STYLE: &'static str = " stroke=\"#bbb\" stroke-width=\"0.4\"";
    const BAR_W: usize = 24;

    fn caption(&self, root: &Frame) -> String {
        format!(
            "base {:.3} ms → test {:.3} ms ({}) — red grew, blue shrank",
            root.base_total_ns / 1e6,
            root.total_ns / 1e6,
            delta_text(root),
        )
    }

    /// White→red for regressions, white→blue for improvements, on a
    /// square-root intensity ramp.
    fn fill(&self, frame: &Frame) -> (u8, u8, u8) {
        let delta = frame.delta_ns();
        if self.max_abs <= 0.0 || delta == 0.0 {
            return (245, 245, 245);
        }
        let t = (delta.abs() / self.max_abs).clamp(0.0, 1.0).sqrt();
        if delta > 0.0 {
            (250 - (30.0 * t) as u8, 250 - (195.0 * t) as u8, 250 - (205.0 * t) as u8)
        } else {
            (250 - (190.0 * t) as u8, 250 - (155.0 * t) as u8, 250 - (30.0 * t) as u8)
        }
    }

    fn tooltip(&self, frame: &Frame) -> String {
        format!(
            "base {:.3} ms → test {:.3} ms, {}",
            frame.base_total_ns / 1e6,
            frame.total_ns / 1e6,
            delta_text(frame),
        )
    }

    fn ansi_row(&self, frame: &Frame) -> Option<(String, String)> {
        // Keep frames whose *subtree* still carries a visible delta, so a
        // small parent never hides a large child.
        if self.max_abs > 0.0 && frame.max_abs_delta() / self.max_abs < 0.005 {
            return None;
        }
        let share = if self.max_abs > 0.0 {
            (frame.delta_ns().abs() / self.max_abs).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let filled = ((share * Self::BAR_W as f64).round() as usize).min(Self::BAR_W);
        Some((
            if filled > 0 { "█".repeat(filled) } else { "·".to_string() },
            format!("{:>22}", delta_text(frame)),
        ))
    }

    /// Worst regressions first, then the biggest improvements.
    fn rank(&self, frame: &Frame) -> f64 {
        frame.delta_ns()
    }
}

/// Renders the differential flame tree as a self-contained SVG: layout
/// from the test profile, red/blue colouring by delta against the base.
pub fn render_diff_svg(root: &Frame, title: &str) -> String {
    flame::svg(root, title, &Delta { max_abs: root.max_abs_delta() })
}

/// Renders the diff for a terminal: depth-indented union tree (vanished
/// frames included), red/blue bars proportional to each frame's share of
/// the largest delta, worst regressions first.
pub fn render_diff_ansi(root: &Frame) -> String {
    let mut out = String::new();
    flame::ansi_frame(&mut out, root, 0, &Delta { max_abs: root.max_abs_delta() });
    out
}

/// The `difffolded.pl` two-count collapsed format: one line per union
/// stack, `stack base_ns test_ns`. Deterministic (sorted) and lossless —
/// vanished and new stacks carry an explicit 0 on the missing side.
pub fn to_collapsed_diff(base: &Folded, test: &Folded) -> String {
    let mut stacks: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (stack, ns) in &base.lines {
        stacks.entry(stack).or_default().0 = *ns;
    }
    for (stack, ns) in &test.lines {
        stacks.entry(stack).or_default().1 = *ns;
    }
    let mut out = String::new();
    for (stack, (b, t)) in stacks {
        out.push_str(&format!("{stack} {} {}\n", b.round() as u64, t.round() as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn folded(lines: &[(&str, f64)]) -> Folded {
        let mut f = Folded::default();
        for (stack, ns) in lines {
            f.lines.insert(stack.to_string(), *ns);
        }
        f
    }

    fn base() -> Folded {
        folded(&[
            ("burst;qd_step;CGEMM", 600.0),
            ("burst;qd_step", 300.0),
            ("burst;old_phase", 100.0),
        ])
    }

    fn test_profile() -> Folded {
        folded(&[
            ("burst;qd_step;CGEMM", 900.0),
            ("burst;qd_step", 250.0),
            ("burst;new_phase", 50.0),
        ])
    }

    #[test]
    fn union_tree_carries_both_sides() {
        let root = build_diff_tree(&base(), &test_profile());
        assert_eq!(root.base_total_ns, 1000.0);
        assert_eq!(root.total_ns, 1200.0);
        assert_eq!(root.delta_ns(), 200.0);
        let burst = &root.children["burst"];
        let gemm = &burst.children["qd_step"].children["CGEMM"];
        assert_eq!(gemm.delta_ns(), 300.0, "regressed frame");
        assert_eq!(burst.children["qd_step"].delta_ns(), 250.0, "300 self shrink +300 child");
        // Vanished and new frames both exist in the union.
        assert_eq!(burst.children["old_phase"].total_ns, 0.0);
        assert_eq!(burst.children["new_phase"].base_total_ns, 0.0);
        assert_eq!(root.max_abs_delta(), 300.0);
    }

    #[test]
    fn svg_layout_is_test_sided_and_colour_coded() {
        let root = build_diff_tree(&base(), &test_profile());
        let svg = render_diff_svg(&root, "diff");
        assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("CGEMM"));
        assert!(svg.contains("new_phase"), "new frames are part of the test layout");
        assert!(!svg.contains("old_phase"), "vanished frames have zero test width");
        // CGEMM regressed by the full max delta: saturated red (220,55,45).
        assert!(svg.contains("rgb(220,55,45)"), "missing saturated red: {svg}");
        assert!(svg.contains("red grew, blue shrank"));
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn ansi_shows_vanished_frames() {
        let root = build_diff_tree(&base(), &test_profile());
        let text = render_diff_ansi(&root);
        assert!(text.contains("old_phase"), "vanished frame dropped: {text}");
        assert!(text.contains("CGEMM"));
        let gemm = text.find("CGEMM").unwrap();
        let old = text.find("old_phase").unwrap();
        assert!(gemm < old, "regressions must come before improvements");
        assert!(text.contains("(new)"));
    }

    #[test]
    fn collapsed_diff_is_two_count_and_lossless() {
        let text = to_collapsed_diff(&base(), &test_profile());
        assert!(text.contains("burst;qd_step;CGEMM 600 900\n"));
        assert!(text.contains("burst;old_phase 100 0\n"), "{text}");
        assert!(text.contains("burst;new_phase 0 50\n"));
    }

    #[test]
    fn identical_profiles_diff_to_neutral() {
        let root = build_diff_tree(&base(), &base());
        assert_eq!(root.delta_ns(), 0.0);
        assert_eq!(root.max_abs_delta(), 0.0);
        let svg = render_diff_svg(&root, "same");
        assert!(svg.contains("rgb(245,245,245)"), "unchanged frames are near-white");
        // Empty-vs-empty must not divide by zero.
        let empty = build_diff_tree(&Folded::default(), &Folded::default());
        let _ = render_diff_svg(&empty, "empty");
        let _ = render_diff_ansi(&empty);
    }

    #[test]
    fn test_tree_projection_matches_plain_flame_shape() {
        // The test side of a diff tree is the plain flame tree of the
        // test profile: same totals, and the same picture under the
        // plain paint (a vanished frame has no width to draw).
        let root = build_diff_tree(&base(), &test_profile());
        let plain = flame::build_tree(&test_profile());
        assert_eq!(root.total_ns, 1200.0);
        assert_eq!(root.children["burst"].children["old_phase"].total_ns, 0.0);
        assert!(!plain.children["burst"].children.contains_key("old_phase"));
        assert_eq!(root.children["burst"].children["qd_step"].children["CGEMM"].total_ns, 900.0);
        assert_eq!(flame::render_svg(&root, "t"), flame::render_svg(&plain, "t"));
        assert_eq!(flame::render_ansi(&root), flame::render_ansi(&plain));
    }
}
