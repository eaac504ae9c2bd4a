//! Flamegraph rendering from folded stacks.
//!
//! Two self-contained renderers, no external tooling required:
//!
//! * [`render_svg`] — a static SVG in the classic flamegraph layout
//!   (root at the bottom, callees stacked upward, width ∝ inclusive
//!   time). Every rect carries a `<title>` tooltip with the exact
//!   nanosecond total and percentage, so the file is explorable in any
//!   browser without JavaScript.
//! * [`render_ansi`] — a terminal rendering: one line per frame,
//!   depth-indented, with a 256-colour bar scaled to the frame's share
//!   of the root.
//!
//! Both render the same [`Frame`] tree built by [`build_tree`] from a
//! [`Folded`] set, so the folded text, the SVG, and the terminal view
//! always agree on totals.
//!
//! The tree and the two renderers are also the differential
//! flamegraph's ([`crate::diff`]): a frame carries the totals of the
//! profile being drawn and of a base it is compared against, and a plain
//! flame graph is the tree whose base is empty. What differs between
//! the two views — colour, tooltip, caption, which frames a terminal
//! shows and in what order — is their [`Paint`].

use crate::fold::Folded;
use std::collections::BTreeMap;

/// One node of the flame tree.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    /// Frame label.
    pub name: String,
    /// Weighted self nanoseconds attributed directly to this frame.
    pub self_ns: f64,
    /// Weighted inclusive nanoseconds (self + children).
    pub total_ns: f64,
    /// Self nanoseconds in the base profile (0 without one).
    pub base_self_ns: f64,
    /// Inclusive nanoseconds in the base profile (0 without one).
    pub base_total_ns: f64,
    /// Child frames by label (the union of both profiles').
    pub children: BTreeMap<String, Frame>,
}

impl Frame {
    /// Depth of the subtree rooted here (a leaf is 1).
    pub fn depth(&self) -> usize {
        1 + self.children.values().map(Frame::depth).max().unwrap_or(0)
    }

    /// Adds one profile's stacks below this (root) frame; `side` names
    /// the (self, inclusive) pair of a frame they count towards.
    pub(crate) fn add_stacks(
        &mut self,
        folded: &Folded,
        side: fn(&mut Frame) -> (&mut f64, &mut f64),
    ) {
        for (stack, ns) in &folded.lines {
            let mut node = &mut *self;
            *side(node).1 += ns;
            for part in stack.split(';') {
                node = node
                    .children
                    .entry(part.to_string())
                    .or_insert_with(|| Frame { name: part.to_string(), ..Default::default() });
                *side(node).1 += ns;
            }
            *side(node).0 += ns;
        }
    }
}

/// Builds the flame tree from folded stacks. The returned root is the
/// synthetic `all` frame whose total is the folded grand total.
pub fn build_tree(folded: &Folded) -> Frame {
    let mut root = Frame { name: "all".to_string(), ..Default::default() };
    root.add_stacks(folded, |f| (&mut f.self_ns, &mut f.total_ns));
    root
}

/// What tells one flame view from another once the tree is laid out.
pub(crate) trait Paint {
    /// Extra attributes of every frame's `<rect>`.
    const RECT_STYLE: &'static str;
    /// Width of the terminal view's bar column.
    const BAR_W: usize;
    /// The SVG caption after `"{title} — "`.
    fn caption(&self, root: &Frame) -> String;
    /// A frame's colour.
    fn fill(&self, frame: &Frame) -> (u8, u8, u8);
    /// A frame's tooltip after `"{name} — "`.
    fn tooltip(&self, frame: &Frame) -> String;
    /// A frame's terminal line — its bar, and the columns between the
    /// bar and the name — or `None` to leave out it and its subtree.
    fn ansi_row(&self, frame: &Frame) -> Option<(String, String)>;
    /// The terminal view lists siblings by descending rank.
    fn rank(&self, frame: &Frame) -> f64;
}

/// The plain flame graph's paint: a warm colour per name, and each
/// frame's share of the root.
struct Heat {
    root_total: f64,
}

impl Heat {
    fn pct(&self, frame: &Frame) -> f64 {
        100.0 * frame.total_ns / self.root_total.max(1.0)
    }
}

impl Paint for Heat {
    const RECT_STYLE: &'static str = "";
    const BAR_W: usize = 32;

    fn caption(&self, root: &Frame) -> String {
        format!("total {:.3} ms", root.total_ns / 1e6)
    }

    /// Deterministic warm colour for a frame name (flamegraph
    /// convention: reds/oranges/yellows, hashed so the same frame keeps
    /// its colour across renders).
    fn fill(&self, frame: &Frame) -> (u8, u8, u8) {
        let mut h: u32 = 2166136261;
        for b in frame.name.bytes() {
            h = (h ^ b as u32).wrapping_mul(16777619);
        }
        let r = 205 + (h % 50) as u8;
        let g = 80 + ((h >> 8) % 150) as u8;
        let b = ((h >> 16) % 55) as u8;
        (r, g, b)
    }

    fn tooltip(&self, frame: &Frame) -> String {
        format!("{:.3} ms ({:.2}%)", frame.total_ns / 1e6, self.pct(frame))
    }

    fn ansi_row(&self, frame: &Frame) -> Option<(String, String)> {
        let pct = self.pct(frame);
        if pct < 0.05 {
            return None;
        }
        let filled = ((pct / 100.0) * Self::BAR_W as f64).round() as usize;
        Some((
            "█".repeat(filled.clamp(1, Self::BAR_W)),
            format!("{:>6.2}% {:>10.3} ms", pct, frame.total_ns / 1e6),
        ))
    }

    /// Largest children first, the terminal-friendly reading order.
    fn rank(&self, frame: &Frame) -> f64 {
        frame.total_ns
    }
}

const ROW_H: f64 = 17.0;
const WIDTH: f64 = 1200.0;
const PAD: f64 = 10.0;
/// Approximate character width of the 12px monospace labels.
const CHAR_W: f64 = 7.2;

/// Escapes text for SVG content and attribute values — the one escaper
/// of every SVG this crate writes.
pub(crate) fn svg_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

fn svg_frame<P: Paint>(
    out: &mut String,
    frame: &Frame,
    x: f64,
    depth: usize,
    max_depth: usize,
    scale: f64,
    paint: &P,
) {
    let w = frame.total_ns * scale;
    if w < 0.3 {
        return;
    }
    // Root at the bottom, callees stacked upward.
    let y = PAD + (max_depth - depth) as f64 * ROW_H;
    let (r, g, b) = paint.fill(frame);
    out.push_str(&format!(
        "<g><title>{} — {}</title><rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" \
         height=\"{:.1}\" fill=\"rgb({r},{g},{b})\"{} rx=\"2\"/>",
        svg_escape(&frame.name),
        paint.tooltip(frame),
        ROW_H - 1.0,
        P::RECT_STYLE
    ));
    let max_chars = ((w - 6.0) / CHAR_W) as usize;
    if max_chars >= 3 {
        let label: String = if frame.name.chars().count() <= max_chars {
            frame.name.clone()
        } else {
            let head: String = frame.name.chars().take(max_chars.saturating_sub(2)).collect();
            format!("{head}..")
        };
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.1}\" font-size=\"12\" font-family=\"monospace\">{}</text>",
            x + 3.0,
            y + ROW_H - 5.0,
            svg_escape(&label)
        ));
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for child in frame.children.values() {
        svg_frame(out, child, cx, depth + 1, max_depth, scale, paint);
        cx += child.total_ns * scale;
    }
}

/// Renders a tree as a self-contained SVG document under `paint`.
pub(crate) fn svg<P: Paint>(root: &Frame, title: &str, paint: &P) -> String {
    let max_depth = root.depth().saturating_sub(1).max(1);
    let height = PAD * 2.0 + (max_depth + 1) as f64 * ROW_H + 24.0;
    let scale = if root.total_ns > 0.0 { (WIDTH - 2.0 * PAD) / root.total_ns } else { 0.0 };
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {WIDTH} {height:.0}\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fdf6e3\"/>\n\
         <text x=\"{PAD}\" y=\"{:.0}\" font-size=\"14\" font-family=\"monospace\">{} — \
         {}</text>\n",
        height - 8.0,
        svg_escape(title),
        paint.caption(root)
    ));
    svg_frame(&mut out, root, PAD, 0, max_depth, scale, paint);
    out.push_str("</svg>\n");
    out
}

/// Renders the flame tree as a self-contained SVG document.
pub fn render_svg(root: &Frame, title: &str) -> String {
    svg(root, title, &Heat { root_total: root.total_ns })
}

/// Renders a tree for a terminal under `paint`: depth-indented frames
/// with truecolour bars.
pub(crate) fn ansi_frame<P: Paint>(out: &mut String, frame: &Frame, depth: usize, paint: &P) {
    let Some((bar, columns)) = paint.ansi_row(frame) else { return };
    let (r, g, b) = paint.fill(frame);
    out.push_str(&format!(
        "{:indent$}\x1b[38;2;{r};{g};{b}m{bar:<bar_w$}\x1b[0m {columns}  {}\n",
        "",
        frame.name,
        indent = depth * 2,
        bar_w = P::BAR_W.saturating_sub(depth * 2).max(1),
    ));
    let mut kids: Vec<&Frame> = frame.children.values().collect();
    kids.sort_by(|a, b| {
        paint.rank(b).partial_cmp(&paint.rank(a)).unwrap_or(std::cmp::Ordering::Equal)
    });
    for child in kids {
        ansi_frame(out, child, depth + 1, paint);
    }
}

/// Renders the flame tree for a terminal: depth-indented frames with
/// truecolour bars proportional to their share of the root.
pub fn render_ansi(root: &Frame) -> String {
    let mut out = String::new();
    ansi_frame(&mut out, root, 0, &Heat { root_total: root.total_ns });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::Folded;

    fn folded() -> Folded {
        let mut f = Folded::default();
        f.lines.insert("burst".to_string(), 100.0);
        f.lines.insert("burst;qd_step".to_string(), 300.0);
        f.lines.insert("burst;qd_step;CGEMM".to_string(), 600.0);
        f
    }

    #[test]
    fn tree_totals_are_inclusive() {
        let root = build_tree(&folded());
        assert_eq!(root.total_ns, 1000.0);
        let burst = &root.children["burst"];
        assert_eq!(burst.total_ns, 1000.0);
        assert_eq!(burst.self_ns, 100.0);
        let step = &burst.children["qd_step"];
        assert_eq!(step.total_ns, 900.0);
        assert_eq!(step.children["CGEMM"].total_ns, 600.0);
        assert_eq!(root.depth(), 4);
    }

    #[test]
    fn svg_contains_all_frames_and_is_well_formed() {
        let root = build_tree(&folded());
        let svg = render_svg(&root, "test flame");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        for name in ["burst", "qd_step", "CGEMM"] {
            assert!(svg.contains(name), "missing {name}");
        }
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
        assert!(svg.contains("total 0.001 ms"));
    }

    #[test]
    fn svg_escapes_markup_in_names() {
        let mut f = Folded::default();
        f.lines.insert("a<b>&\"c\"".to_string(), 10.0);
        let svg = render_svg(&build_tree(&f), "t");
        assert!(!svg.contains("a<b>"));
        assert!(svg.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
    }

    #[test]
    fn ansi_orders_children_by_weight() {
        let root = build_tree(&folded());
        let text = render_ansi(&root);
        let all_pos = text.find("all").unwrap();
        let burst_pos = text.find("burst").unwrap();
        let gemm_pos = text.find("CGEMM").unwrap();
        assert!(all_pos < burst_pos && burst_pos < gemm_pos);
        assert!(text.contains("100.00%"));
    }

    #[test]
    fn empty_fold_renders_without_panic() {
        let root = build_tree(&Folded::default());
        assert_eq!(root.total_ns, 0.0);
        let svg = render_svg(&root, "empty");
        assert!(svg.contains("</svg>"));
        let _ = render_ansi(&root);
    }
}
