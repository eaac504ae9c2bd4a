//! The rendered bytes of `profile flame` / `profile diff`, pinned: the
//! golden files under `golden/` were written by the two separate
//! renderers this crate had before they became one tree and one
//! SVG/ANSI renderer with a paint, on the fixed folded input below —
//! and every SVG the crate writes (flame, diff, trend) goes through one
//! escaper.

use dcmesh_profile::fold::Folded;
use dcmesh_profile::{diff, flame, trend};

fn folded(lines: &[(&str, f64)]) -> Folded {
    let mut f = Folded::default();
    for (stack, ns) in lines {
        f.lines.insert(stack.to_string(), *ns);
    }
    f
}

fn base() -> Folded {
    folded(&[
        ("burst;qd_step;qd_propagate;CGEMM[FLOAT_TO_BF16]", 6.0e6),
        ("burst;qd_step;qd_propagate", 2.5e6),
        ("burst;qd_step;nonlocal;CGEMM[FLOAT_TO_BF16]", 1.25e6),
        ("burst;qd_step", 3.0e5),
        ("burst;scf_refresh;ZGEMM", 4.0e6),
        ("burst;scf_refresh;eigh", 7.5e5),
        ("burst;old_phase", 1.0e5),
        ("burst;tiny", 40.0),
    ])
}

fn test() -> Folded {
    folded(&[
        ("burst;qd_step;qd_propagate;CGEMM[FLOAT_TO_BF16]", 9.0e6),
        ("burst;qd_step;qd_propagate", 2.25e6),
        ("burst;qd_step;nonlocal;CGEMM[FLOAT_TO_BF16]", 1.25e6),
        ("burst;qd_step", 3.1e5),
        ("burst;scf_refresh;ZGEMM", 2.6e6),
        ("burst;scf_refresh;eigh", 7.5e5),
        ("burst;a\"b<c & a_very_long_frame_name_that_will_not_fit_its_box", 5.0e4),
        ("burst;tiny", 45.0),
    ])
}

#[test]
fn flame_svg_and_ansi_match_the_golden_bytes() {
    let tree = flame::build_tree(&test());
    assert_eq!(flame::render_svg(&tree, "golden \"flame\" <t>"), include_str!("golden/flame.svg"));
    assert_eq!(flame::render_ansi(&tree), include_str!("golden/flame.ansi"));
}

#[test]
fn diff_svg_and_ansi_match_the_golden_bytes() {
    let tree = diff::build_diff_tree(&base(), &test());
    assert_eq!(
        diff::render_diff_svg(&tree, "base.jsonl → test.jsonl"),
        include_str!("golden/diff.svg")
    );
    assert_eq!(diff::render_diff_ansi(&tree), include_str!("golden/diff.ansi"));
}

/// A small well-formedness check, enough for the SVG this crate writes:
/// tags balance, attribute values are quoted, and text holds no raw `<`,
/// `"` or `&` that is not one of the five entities.
fn assert_well_formed(svg: &str) {
    let mut open: Vec<&str> = Vec::new();
    let mut rest = svg;
    while !rest.is_empty() {
        let lt = rest.find('<').unwrap_or(rest.len());
        let text = &rest[..lt];
        assert!(!text.contains('"') && !text.contains('>'), "raw quote or '>' in text {text:?}");
        for (i, _) in text.match_indices('&') {
            assert!(
                ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;"].iter().any(|e| text[i..].starts_with(e)),
                "bare '&' in text {text:?}"
            );
        }
        if lt == rest.len() {
            break;
        }
        let gt = rest[lt..].find('>').expect("unterminated tag") + lt;
        let tag = &rest[lt + 1..gt];
        assert_eq!(tag.matches('"').count() % 2, 0, "unbalanced quotes in <{tag}>");
        assert!(!tag.contains('<'), "'<' inside <{tag}>");
        let name = tag.trim_start_matches('/').split([' ', '/']).next().unwrap();
        if let Some(closing) = tag.strip_prefix('/') {
            assert_eq!(open.pop(), Some(closing), "mismatched </{closing}>");
        } else if !tag.ends_with('/') {
            open.push(name);
        }
        rest = &rest[gt + 1..];
    }
    assert!(open.is_empty(), "unclosed {open:?}");
}

#[test]
fn a_callsite_with_markup_renders_to_well_formed_svg_everywhere() {
    let name = "a\"b<c";
    let hot = folded(&[(name, 100.0)]);
    let flame_svg = flame::render_svg(&flame::build_tree(&hot), name);
    let diff_svg = diff::render_diff_svg(&diff::build_diff_tree(&folded(&[(name, 50.0)]), &hot), name);
    let group = trend::TrendGroup {
        callsite: name.to_string(),
        shape: "64x64x64".to_string(),
        mode: "STANDARD".to_string(),
        run_ids: vec!["r0".to_string(), "r1".to_string()],
        wall_per_call: vec![1e-3, 2e-3],
        misfit: vec![None, None],
        escalations: vec![0.0, 0.0],
        residual_center: vec![None, None],
    };
    let trend_svg = trend::render_svg(&[group], &[]);
    for svg in [&flame_svg, &diff_svg, &trend_svg] {
        assert_well_formed(svg);
        assert!(svg.contains("a&quot;b&lt;c"), "{svg}");
        assert!(!svg.contains(name));
    }
}
