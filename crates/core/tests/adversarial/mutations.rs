//! The adversarial cases every strict reader of an on-disk document
//! faces, in one place: `fuzz_inputs.rs` runs them on the public readers,
//! and the shard run directory's crate-private readers include this file
//! by `#[path]` for theirs.
//!
//! [`check`] starts from a document its own writer produced and asserts:
//!
//! * the untouched document reads `Ok` and re-writes byte-identical;
//! * every proper prefix is an error, except one that drops only
//!   trailing whitespace;
//! * dropping any object member at any depth is an error naming the
//!   member's dotted path (`entries[0].residuals.max`), unless the format
//!   lets that member be absent;
//! * replacing a number with `3.5` or `-1` is an error in a count slot,
//!   and with `1e309` everywhere;
//! * no single-byte flip panics ([`flips`]).

use dcmesh_telemetry::json::{self, JsonValue};
use proptest::test_runner::Rng64;

/// A strict reader under test.
pub struct Reader<'a> {
    /// Names the document in failure messages and seeds its flips.
    pub name: &'a str,
    /// Reads a document and writes it back, or says why it cannot.
    pub read: &'a dyn Fn(&str) -> Result<String, String>,
    /// Whether the member at this dotted path may be absent.
    pub optional: fn(&str) -> bool,
    /// Whether the number at this dotted path is a count.
    pub count: fn(&str) -> bool,
}

/// Runs every case on `text`, the writer's own output.
pub fn check(reader: &Reader, text: &str) {
    let name = reader.name;
    assert_eq!((reader.read)(text).as_deref(), Ok(text), "{name}: the whole document");
    for (i, _) in text.char_indices().filter(|(i, _)| !text[*i..].trim().is_empty()) {
        assert!((reader.read)(&text[..i]).is_err(), "{name}: the {i}-byte prefix was read");
    }
    let doc = json::parse(text).expect("a writer's output is JSON");
    for (steps, path, node) in nodes(&doc) {
        if let (Some((Step::Key(key), parent)), false) =
            (steps.split_last(), (reader.optional)(&path))
        {
            let without = json::dump(&edited(&doc, parent, |p| remove(p, key)));
            let err = (reader.read)(&without).expect_err(&path);
            assert!(err.contains(&path), "{name}: dropping {path} was refused as {err:?}");
        }
        if let JsonValue::Number(_) = node {
            let marked = json::dump(&edited(&doc, &steps, |n| *n = marker()));
            for bad in ["3.5", "-1", "1e309"] {
                let read = (reader.read)(&marked.replacen(MARKER, bad, 1));
                if bad == "1e309" || (reader.count)(&path) {
                    assert!(read.is_err(), "{name}: {path} = {bad} was read");
                }
            }
        }
    }
    for flipped in flips(text.as_bytes(), name) {
        let _ = (reader.read)(&String::from_utf8_lossy(&flipped));
    }
}

/// Byte flips [`flips`] draws per document.
pub const FLIPS: usize = 512;

/// [`FLIPS`] copies of `bytes`, each with one byte XORed by a non-zero
/// value, drawn by the `proptest` generator seeded with `name`.
pub fn flips(bytes: &[u8], name: &str) -> Vec<Vec<u8>> {
    let mut rng = Rng64::from_name(name);
    (0..FLIPS)
        .map(|_| {
            let mut flipped = bytes.to_vec();
            flipped[rng.below(bytes.len() as u64) as usize] ^= 1 + rng.below(255) as u8;
            flipped
        })
        .collect()
}

/// One step from a node to a child.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every node of `doc` below the root with the steps to it and its
/// dotted path, parents before children.
fn nodes(doc: &JsonValue) -> Vec<(Vec<Step>, String, &JsonValue)> {
    let mut out = Vec::new();
    let mut stack = vec![(Vec::new(), String::new(), doc)];
    while let Some((steps, path, v)) = stack.pop() {
        let children: Vec<(Step, String, &JsonValue)> = match v {
            JsonValue::Object(members) => members
                .iter()
                .map(|(k, m)| {
                    let at = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    (Step::Key(k.clone()), at, m)
                })
                .collect(),
            JsonValue::Array(items) => {
                let at = |i| format!("{path}[{i}]");
                items.iter().enumerate().map(|(i, item)| (Step::Index(i), at(i), item)).collect()
            }
            _ => Vec::new(),
        };
        for (step, at, child) in children.into_iter().rev() {
            let mut to = steps.clone();
            to.push(step);
            out.push((to.clone(), at.clone(), child));
            stack.push((to, at, child));
        }
    }
    out
}

/// A copy of `doc` with `edit` applied to the node `steps` reach.
fn edited(doc: &JsonValue, steps: &[Step], edit: impl FnOnce(&mut JsonValue)) -> JsonValue {
    let mut copy = doc.clone();
    let mut node = &mut copy;
    for step in steps {
        node = match (node, step) {
            (JsonValue::Object(members), Step::Key(k)) => members.get_mut(k).expect("a member"),
            (JsonValue::Array(items), Step::Index(i)) => &mut items[*i],
            _ => unreachable!("steps come from the same document"),
        };
    }
    edit(node);
    copy
}

fn remove(object: &mut JsonValue, key: &str) {
    if let JsonValue::Object(members) = object {
        members.remove(key);
    }
}

/// How [`marker`] dumps: the spot a replacement number is spliced into.
const MARKER: &str = "\"\\u0000number\"";

fn marker() -> JsonValue {
    JsonValue::String("\0number".into())
}
