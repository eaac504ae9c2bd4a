//! The harness the three layer benchmarks share — `gemm_hostperf`,
//! `stencil_hostperf` and `linalg_hostperf`: one command line, one
//! sampler, one thread-scaling row, and one way to file a run into its
//! `BENCH_*.json` (the format is [`dcmesh_profile::history`]'s).
//!
//! Every binary takes the same four options:
//!
//! * `--out PATH` — the `BENCH_*.json` to write (default: the binary's, in
//!   the working directory). Its history is read before anything is
//!   timed: a file that exists but does not parse, or whose `history` is
//!   not an array of objects, is refused — exit 2, the file untouched — and
//!   a missing one starts a new history.
//! * `--seconds-per-row F` — how long each row samples (default: the
//!   binary's).
//! * `--label L` — dates this run's entry `<today>-L`, so a run against
//!   the parent library (`--label parent`) stays beside the same day's run
//!   of the change.
//! * `--min-speedup SERIES@ENTRY=F` (repeatable) — fails unless series
//!   `SERIES` of this run is at least `F` times faster than in the history
//!   entry dated `ENTRY` (in the binary's gate column), read from `--out`
//!   before this run is merged into it.
//!
//! `gemm_hostperf` adds one of its own, `--k-scale N`. A bad option exits
//! 2; a failed gate or check exits 1 after the file is written.

use dcmesh_profile::history::{self, Entry, SpeedupGate};
use dcmesh_telemetry::json::JsonValue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Untimed calls before a row's first sample.
pub const WARMUP_CALLS: usize = 2;
/// The fewest samples a row takes, however short `--seconds-per-row`.
pub const MIN_SAMPLES: usize = 5;

/// A layer benchmark's command line.
pub struct Cli {
    bin: &'static str,
    /// `--out`: the `BENCH_*.json` this run is filed into.
    pub out: PathBuf,
    /// `--seconds-per-row`: how long each row samples.
    pub seconds_per_row: f64,
    /// `--label`: the suffix of this run's entry date.
    pub label: Option<String>,
    /// `--min-speedup`, in order.
    pub gates: Vec<SpeedupGate>,
    extra: Vec<(&'static str, String)>,
}

impl Cli {
    /// Parses `args` (without the program name): the four shared options,
    /// defaulting to `out` and `seconds`, plus the value options named in
    /// `extra`.
    pub fn parse(
        bin: &'static str,
        args: impl IntoIterator<Item = String>,
        out: &str,
        seconds: f64,
        extra: &[&'static str],
    ) -> Result<Cli, String> {
        let mut cli = Cli {
            bin,
            out: PathBuf::from(out),
            seconds_per_row: seconds,
            label: None,
            gates: Vec::new(),
            extra: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--out" => cli.out = PathBuf::from(value),
                "--seconds-per-row" => {
                    cli.seconds_per_row = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or("--seconds-per-row needs a positive number")?
                }
                "--label" => cli.label = Some(value),
                "--min-speedup" => cli.gates.push(
                    SpeedupGate::parse(&value)
                        .ok_or("--min-speedup takes SERIES@ENTRY=F with F > 0")?,
                ),
                other => match extra.iter().find(|e| **e == other) {
                    Some(e) => cli.extra.push((e, value)),
                    None => return Err(format!("unknown option {other}")),
                },
            }
        }
        Ok(cli)
    }

    /// [`Cli::parse`] of the process's arguments; exits 2 with a usage
    /// line when they do not parse.
    pub fn from_env(bin: &'static str, out: &str, seconds: f64, extra: &[&'static str]) -> Cli {
        Cli::parse(bin, std::env::args().skip(1), out, seconds, extra).unwrap_or_else(|e| {
            let extra: String = extra.iter().map(|e| format!(" [{e} N]")).collect();
            eprintln!(
                "{bin}: {e}\nusage: {bin} [--out PATH] [--seconds-per-row F] [--label L] \
                 [--min-speedup SERIES@ENTRY=F]...{extra}"
            );
            std::process::exit(2);
        })
    }

    /// The last value given for `flag`, one of the parse's `extra` options.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.extra.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// The history already in `--out`. A torn or foreign file exits 2,
    /// naming it and leaving it as it is.
    pub fn history(&self) -> Vec<JsonValue> {
        history::read(&self.out).unwrap_or_else(|e| {
            eprintln!("{}: refusing to overwrite {e}", self.bin);
            std::process::exit(2);
        })
    }

    /// This run's history entry, dated today (or today-`--label`).
    pub fn entry(&self, threads: usize) -> Entry {
        Entry::new(&history::entry_date(&history::today(), self.label.as_deref()), threads)
    }

    /// Files this run into `--out`: checks every `--min-speedup` gate in
    /// `column` against `history` (the file as read before the run), then
    /// writes `header` followed by `history` with `entry` merged in.
    /// Returns whether every gate passed; a gate naming no series of this
    /// run exits 2 before anything is written.
    pub fn finish(
        &self,
        history: Vec<JsonValue>,
        header: &[(&str, JsonValue)],
        entry: Entry,
        column: &str,
    ) -> bool {
        let mut passed = true;
        for gate in &self.gates {
            let Some(now) = entry.ns(&gate.series, column) else {
                eprintln!("{}: --min-speedup names no row of this run: {}", self.bin, gate.series);
                std::process::exit(2);
            };
            match gate.check(&history, column, now) {
                Ok(verdict) => eprintln!("{verdict}"),
                Err(verdict) => {
                    eprintln!("{}: {verdict} in {}", self.bin, self.out.display());
                    passed = false;
                }
            }
        }
        let history = history::merge(history, entry);
        if let Err(e) = history::write(&self.out, header, &history) {
            eprintln!("{}: cannot write {}: {e}", self.bin, self.out.display());
            std::process::exit(1);
        }
        let n = history.len();
        eprintln!(
            "[wrote {} ({n} history entr{})]",
            self.out.display(),
            if n == 1 { "y" } else { "ies" }
        );
        passed
    }
}

/// Allocator calls (not bytes) made by every thread since the process
/// started, once the binary installs [`CountingAlloc`].
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation. A
/// binary that installs it as its `#[global_allocator]` gets
/// [`Timing::allocs_per_call`] filled in — the pool's workers included.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` unchanged; the counter is an
// atomic bump that neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }
}

/// What [`sample`] measured of one row.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Fastest single call, ns.
    pub min_ns: f64,
    /// Median single call, ns.
    pub median_ns: f64,
    /// Timed calls.
    pub samples: usize,
    /// Allocator calls per timed call (0 unless [`CountingAlloc`] is
    /// installed).
    pub allocs_per_call: f64,
}

/// Times single calls of `f` on a fresh `input()`: [`WARMUP_CALLS`]
/// untimed calls, then at least [`MIN_SAMPLES`] timed ones and until
/// `seconds` have passed. The input is built and the previous output
/// dropped off the clock, and allocations are counted around each timed
/// call only — never the sampler's own bookkeeping. Returns the timing and
/// the last output.
pub fn sample<X, Y>(
    seconds: f64,
    mut input: impl FnMut() -> X,
    mut f: impl FnMut(X) -> Y,
) -> (Timing, Y) {
    let mut last = f(input());
    for _ in 1..WARMUP_CALLS {
        last = f(input());
    }
    let mut log = Log::default();
    let begin = Instant::now();
    while log.ns.len() < MIN_SAMPLES || begin.elapsed().as_secs_f64() < seconds {
        let x = input();
        last = log.time(|| f(x));
    }
    (log.timing(), last)
}

/// Times calls of `a` and of `b` in alternation, one call of each per
/// round, as one row each: [`WARMUP_CALLS`] untimed rounds, then at least
/// [`MIN_SAMPLES`] timed ones and until `seconds` have passed. The two
/// timings see the same stretch of a shared host, so a ratio gate between
/// them does not compare moments seconds apart.
pub fn interleaved(seconds: f64, mut a: impl FnMut(), mut b: impl FnMut()) -> [Timing; 2] {
    for _ in 0..WARMUP_CALLS {
        a();
        b();
    }
    let (mut la, mut lb) = (Log::default(), Log::default());
    let begin = Instant::now();
    while la.ns.len() < MIN_SAMPLES || begin.elapsed().as_secs_f64() < seconds {
        la.time(&mut a);
        lb.time(&mut b);
    }
    [la.timing(), lb.timing()]
}

/// The timed calls of one row: nanoseconds per call, and the allocator
/// calls made during them.
#[derive(Default)]
struct Log {
    ns: Vec<f64>,
    allocs: u64,
}

impl Log {
    /// Times one call, counting allocations around it only.
    fn time<Y>(&mut self, f: impl FnOnce() -> Y) -> Y {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let y = f();
        let elapsed = t0.elapsed();
        self.allocs += ALLOC_CALLS.load(Ordering::Relaxed) - before;
        self.ns.push(elapsed.as_secs_f64() * 1e9);
        y
    }

    fn timing(mut self) -> Timing {
        self.ns.sort_by(f64::total_cmp);
        let samples = self.ns.len();
        Timing {
            min_ns: self.ns[0],
            median_ns: self.ns[samples / 2],
            samples,
            allocs_per_call: self.allocs as f64 / samples as f64,
        }
    }
}

/// The scaling row: `f` sampled on a pool of one thread, then on one of
/// `threads`.
pub fn scaling(seconds: f64, threads: usize, mut f: impl FnMut()) -> [Timing; 2] {
    [1, threads].map(|n| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("thread pool");
        pool.install(|| sample(seconds, || (), |()| f()).0)
    })
}

/// A JSON object of `members`.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
    JsonValue::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON string.
pub fn text(s: &str) -> JsonValue {
    JsonValue::String(s.to_string())
}

/// `v` rounded to `decimals` places (`null` when not finite).
pub fn fixed(v: f64, decimals: i32) -> JsonValue {
    let scale = 10f64.powi(decimals);
    JsonValue::Number((v * scale).round() / scale)
}

/// `v` to four significant digits (`null` when not finite).
pub fn sig4(v: f64) -> JsonValue {
    JsonValue::Number(format!("{v:.3e}").parse().unwrap_or(f64::NAN))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let args = args.iter().map(|a| a.to_string());
        Cli::parse("bench", args, "BENCH_x.json", 0.5, &["--k-scale"])
    }

    #[test]
    fn the_shared_options_and_declared_extras_parse() {
        let cli = parse(&[]).unwrap();
        assert_eq!((cli.out.to_str(), cli.seconds_per_row), (Some("BENCH_x.json"), 0.5));
        assert!(cli.label.is_none() && cli.gates.is_empty() && cli.value("--k-scale").is_none());
        let cli = parse(&[
            "--out",
            "b.json",
            "--seconds-per-row",
            "0.3",
            "--label",
            "parent",
            "--min-speedup",
            "eigh_ritz_64@2026-10-01-parent=3",
            "--min-speedup",
            "scf_refresh_12x96@2026-10-02-parent=1.2",
            "--k-scale",
            "4096",
        ])
        .unwrap();
        assert_eq!((cli.out.to_str(), cli.seconds_per_row), (Some("b.json"), 0.3));
        assert_eq!(cli.label.as_deref(), Some("parent"));
        assert_eq!(cli.gates.len(), 2);
        assert_eq!((cli.gates[1].entry.as_str(), cli.gates[1].factor), ("2026-10-02-parent", 1.2));
        assert_eq!(cli.value("--k-scale"), Some("4096"));
    }

    #[test]
    fn a_bad_option_is_an_error() {
        for args in [
            &["--batch", "2"][..],
            &["--strict"],
            &["--out"],
            &["--seconds-per-row", "0"],
            &["--seconds-per-row", "x"],
            &["--min-speedup", "eigh_ritz_64=3"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
    }

    #[test]
    fn the_sampler_takes_its_minimum_and_orders_min_before_median() {
        let mut calls = 0;
        let (t, last) = sample(
            0.0,
            || 3,
            |x| {
                calls += 1;
                x * 2
            },
        );
        assert_eq!(last, 6);
        assert_eq!(t.samples, MIN_SAMPLES);
        assert_eq!(calls, WARMUP_CALLS + MIN_SAMPLES);
        assert!(t.min_ns <= t.median_ns);
    }

    #[test]
    fn the_zero_allocation_rule_fires_on_a_timed_call_that_allocates() {
        let (t, _) = sample(0.0, || (), |()| black_box(vec![0u8; 64]));
        assert!(t.allocs_per_call >= 1.0, "{t:?}");
        let [one, all] = scaling(0.0, 2, || drop(black_box(vec![0u8; 64])));
        assert!(one.allocs_per_call >= 1.0 && all.allocs_per_call >= 1.0);
        let [dirty, _] = interleaved(0.0, || drop(black_box(vec![0u8; 64])), || ());
        assert!(dirty.allocs_per_call >= 1.0, "{dirty:?}");
    }

    #[test]
    fn json_numbers_round_as_the_files_print_them() {
        assert_eq!(fixed(1234.56, 1), JsonValue::Number(1234.6));
        assert_eq!(fixed(0.98765, 4), JsonValue::Number(0.9877));
        assert_eq!(sig4(3.33449e-16), JsonValue::Number(3.334e-16));
        let row = object([("kernel", text("eigh")), ("n_orb", fixed(64.0, 0))]);
        assert_eq!(dcmesh_telemetry::json::dump(&row), r#"{"kernel":"eigh","n_orb":64}"#);
    }
}
