//! `profile`: trace analysis CLI over `events.jsonl` telemetry dumps.
//!
//! ```text
//! profile flame  <events.jsonl> [--root NAME] [--by-mode] [--by-shape]
//!                [--svg PATH] [--ansi] [--folded PATH]
//! profile table  <events.jsonl> [--json PATH]
//! profile merge  <a.jsonl> <b.jsonl> [...] --out merged.json
//! profile diff   <base.jsonl> <test.jsonl> [--root NAME] [--by-mode]
//!                [--by-shape] [--svg PATH] [--ansi]
//! profile watch  <run-dir> [--interval-ms N] [--once] [--prom PATH]
//! profile synth  --out PATH
//! profile synth  --ledger-dir DIR [--slow-callsite CS] [--slow-factor F]
//! profile archive <run-dir> --archive PATH [--mode-policy P]
//! profile trend  --archive PATH [--bench BENCH_x.json]... [--svg PATH]
//! profile advise --archive PATH [--out advice.json]
//! ```
//!
//! `flame` writes a self-contained SVG (`--svg`) and/or an ANSI terminal
//! flamegraph (`--ansi`); with neither flag it prints collapsed stacks to
//! stdout (inferno-compatible). `table` prints the per-(routine, mode,
//! shape) GEMM attribution table and the per-phase table; `--json` also
//! writes the machine-readable GEMM rows. `merge` joins several ranks'
//! dumps into one Chrome trace with per-rank pids and epoch-aligned
//! clocks. `diff` compares two dumps as a red/blue differential
//! flamegraph (layout from the test profile, red = frame grew, blue =
//! shrank); with neither `--svg` nor `--ansi` it prints the two-count
//! `difffolded` collapsed text. All subcommands print ingestion/coverage
//! warnings to stderr, among them the drop counts the producer wrote into
//! the stream's `telemetry_meta` header.
//!
//! `flame`, `table` and `diff` read their input incrementally —
//! memory stays bounded by the open-span depth plus the fold/table group
//! count, never by the dump size. They read the span stream of a
//! `TELEMETRY=full` run, where every call is one span; the exact
//! per-callsite call counts and costs of any run are its ledger's, which
//! `watch` and `archive` read.
//!
//! `watch` re-reads the ledger snapshots a run directory holds
//! (`ledger.json`, or the `trace/ledger-rank*.json` every shard rank
//! rewrites at each committed burst — the files `archive` folds when the
//! run is over, so every number is exact) and redraws the merged
//! precision ledger every `--interval-ms` (default 1000); `--once` prints
//! a single look and exits, `--prom` additionally maintains a Prometheus
//! scrape file. `synth` writes a deterministic synthetic dump of at least
//! 100 MiB for exercising the bounded-memory read; with `--ledger-dir`
//! it instead writes a deterministic synthetic run directory (a
//! `ledger.json`) for exercising the cross-run machinery, optionally
//! with a planted per-callsite slowdown.
//!
//! The cross-run trio: `archive` folds a finished run directory into the
//! append-only `runs.jsonl` store (idempotent per content-derived run
//! id); `trend` compares each key's newest archived run against the
//! median/MAD baseline of its priors and **exits 1 when any wall-time,
//! time-misfit, escalation-rate, or residual-shift regression is
//! flagged** (0 clean, 2 usage) — wire it straight into CI; `advise`
//! joins the archived accuracy evidence against the xe-gpu roofline
//! model and writes the per-callsite recommended-mode plan
//! (`advice.json`, schema v1).

use dcmesh_profile::{advise, archive, diff, flame, fold, ingest, table, trend, watch};
use dcmesh_telemetry::{export, Attr, AttrValue, Event, EventKind, Track};
use std::io::{BufRead, BufReader, IsTerminal, Write as _};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  profile flame  <events.jsonl> [--root NAME] [--by-mode] \
         [--by-shape] [--svg PATH] [--ansi] [--folded PATH]\n  profile table  \
         <events.jsonl> [--json PATH]\n  profile merge  \
         <a.jsonl> <b.jsonl> [...] --out merged.json\n  profile diff   <base.jsonl> \
         <test.jsonl> [--root NAME] [--by-mode] [--by-shape] [--svg PATH] [--ansi]\n  \
         profile watch  <run-dir> [--interval-ms N] [--once] [--prom PATH]\n  \
         profile synth  --out PATH\n  \
         profile synth  --ledger-dir DIR [--slow-callsite CS] [--slow-factor F]\n  \
         profile archive <run-dir> --archive PATH [--mode-policy P]\n  \
         profile trend  --archive PATH [--bench BENCH_x.json]... [--svg PATH]\n  \
         profile advise --archive PATH [--out advice.json]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("profile: cannot read {path}: {e}");
        ExitCode::from(1)
    })
}

fn write(path: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| {
        eprintln!("profile: cannot write {path}: {e}");
        ExitCode::from(1)
    })
}

/// Pulls `--flag VALUE` out of `args`, if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        return None;
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Pulls a bare `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Streams `input` line by line through a [`ingest::StreamingIngester`],
/// handing every closed span to `on_span` as soon as it closes, then
/// prints the ingestion/coverage warnings. Memory is bounded by the
/// open-span depth. Lines are fed exactly as `str::lines()` would produce
/// them, so the result equals the library's batch `ingest_jsonl`.
fn stream_spans(input: &str, mut on_span: impl FnMut(&ingest::Span)) -> Result<(), ExitCode> {
    let file = std::fs::File::open(input).map_err(|e| {
        eprintln!("profile: cannot read {input}: {e}");
        ExitCode::from(1)
    })?;
    let mut reader = BufReader::new(file);
    let mut ing = ingest::StreamingIngester::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let n = reader.read_until(b'\n', &mut buf).map_err(|e| {
            eprintln!("profile: read error on {input}: {e}");
            ExitCode::from(1)
        })?;
        if n == 0 {
            break;
        }
        let mut end = buf.len();
        if buf.get(end.wrapping_sub(1)) == Some(&b'\n') {
            end -= 1;
        }
        if buf.get(end.wrapping_sub(1)) == Some(&b'\r') {
            end -= 1;
        }
        let line = String::from_utf8_lossy(&buf[..end]);
        ing.feed_line(&line);
        for span in ing.take_closed_spans() {
            on_span(&span);
        }
    }
    let trace = ing.finish();
    for span in &trace.spans {
        on_span(span);
    }
    for w in &trace.warnings {
        eprintln!("profile: warning: {w}");
    }
    Ok(())
}

/// Folds the spans of `input` into collapsed stacks.
fn fold_file(input: &str, opts: &fold::FoldOptions) -> Result<fold::Folded, ExitCode> {
    let mut acc = fold::FoldAccum::new(opts.clone());
    stream_spans(input, |s| acc.add(s))?;
    Ok(acc.finish())
}

fn fold_opts(args: &mut Vec<String>) -> fold::FoldOptions {
    fold::FoldOptions {
        root: take_value(args, "--root"),
        by_mode: take_flag(args, "--by-mode"),
        by_shape: take_flag(args, "--by-shape"),
    }
}

fn cmd_flame(mut args: Vec<String>) -> Result<(), ExitCode> {
    let svg_path = take_value(&mut args, "--svg");
    let folded_path = take_value(&mut args, "--folded");
    let ansi = take_flag(&mut args, "--ansi");
    let opts = fold_opts(&mut args);
    let [input] = args.as_slice() else { return Err(usage()) };

    let folded = fold_file(input, &opts)?;
    if folded.lines.is_empty() {
        eprintln!("profile: warning: no spans folded (empty trace or --root matched nothing)");
    }
    let tree = flame::build_tree(&folded);
    let title = match &opts.root {
        Some(r) => format!("{input} (root: {r})"),
        None => input.clone(),
    };
    if let Some(p) = &svg_path {
        write(p, &flame::render_svg(&tree, &title))?;
        eprintln!("profile: wrote {p} ({:.3} ms total)", tree.total_ns / 1e6);
    }
    if let Some(p) = &folded_path {
        write(p, &folded.to_collapsed())?;
    }
    if ansi {
        print!("{}", flame::render_ansi(&tree));
    } else if svg_path.is_none() && folded_path.is_none() {
        print!("{}", folded.to_collapsed());
    }
    Ok(())
}

fn cmd_table(mut args: Vec<String>) -> Result<(), ExitCode> {
    let json_path = take_value(&mut args, "--json");
    let [input] = args.as_slice() else { return Err(usage()) };

    let mut acc = table::TableAccum::new();
    stream_spans(input, |s| acc.add(s))?;
    let rows = acc.gemm_rows();
    println!("== BLAS calls by (routine, mode, shape) — speedup vs FP32 ==");
    print!("{}", table::render_gemm_table(&rows));
    let phases = acc.phase_rows();
    if !phases.is_empty() {
        println!("\n== Phase wall time by enclosing burst mode ==");
        print!("{}", table::render_phase_table(&phases));
    }
    if let Some(p) = &json_path {
        write(p, &table::gemm_table_json(&rows))?;
        eprintln!("profile: wrote {p} ({} rows)", rows.len());
    }
    Ok(())
}

fn cmd_diff(mut args: Vec<String>) -> Result<(), ExitCode> {
    let svg_path = take_value(&mut args, "--svg");
    let ansi = take_flag(&mut args, "--ansi");
    let opts = fold_opts(&mut args);
    let [base_path, test_path] = args.as_slice() else { return Err(usage()) };

    let base = fold_file(base_path, &opts)?;
    let test = fold_file(test_path, &opts)?;
    if base.lines.is_empty() && test.lines.is_empty() {
        eprintln!("profile: warning: nothing to diff (empty traces or --root matched nothing)");
    }
    let tree = diff::build_diff_tree(&base, &test);
    if let Some(p) = &svg_path {
        let title = format!("{base_path} → {test_path}");
        write(p, &diff::render_diff_svg(&tree, &title))?;
        eprintln!(
            "profile: wrote {p} (base {:.3} ms → test {:.3} ms)",
            tree.base_total_ns / 1e6,
            tree.total_ns / 1e6
        );
    }
    if ansi {
        print!("{}", diff::render_diff_ansi(&tree));
    } else if svg_path.is_none() {
        print!("{}", diff::to_collapsed_diff(&base, &test));
    }
    Ok(())
}

fn cmd_merge(mut args: Vec<String>) -> Result<(), ExitCode> {
    let Some(out) = take_value(&mut args, "--out") else { return Err(usage()) };
    if args.is_empty() {
        return Err(usage());
    }
    let texts: Vec<String> = args.iter().map(|p| read(p)).collect::<Result<_, _>>()?;
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    write(&out, &export::chrome_trace(&refs))?;
    eprintln!("profile: merged {} stream(s) into {out}", refs.len());
    Ok(())
}

fn cmd_watch(mut args: Vec<String>) -> Result<(), ExitCode> {
    let interval_ms: u64 = match take_value(&mut args, "--interval-ms") {
        Some(v) => v.parse().map_err(|_| usage())?,
        None => 1000,
    };
    let once = take_flag(&mut args, "--once");
    let prom_path = take_value(&mut args, "--prom");
    let [run_dir] = args.as_slice() else { return Err(usage()) };
    let tty = std::io::stdout().is_terminal();
    loop {
        let view = watch::view(std::path::Path::new(run_dir)).map_err(|e| {
            eprintln!("profile: {e}");
            ExitCode::from(1)
        })?;
        if let Some(p) = &prom_path {
            let body = dcmesh_telemetry::ledger::rows_prometheus(&view.rows);
            dcmesh_telemetry::export::write_atomic(std::path::Path::new(p), &body).map_err(|e| {
                eprintln!("profile: cannot write {p}: {e}");
                ExitCode::from(1)
            })?;
        }
        if tty && !once {
            // Clear + home, so the dashboard redraws in place.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", view.dashboard);
        let _ = std::io::stdout().flush();
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// Least size of the `synth` event dump. CI reads the dump under a
/// 256 MiB address-space cap, which a whole-file load of 100 MiB of
/// events cannot fit, so only a streaming reader passes.
const SYNTH_MIN_BYTES: u64 = 100 * 1024 * 1024;

/// Deterministic synthetic event stream: repeated bursts of QD steps
/// with CGEMM leaf spans (callsite/shape/mode attributes included) plus
/// a sprinkle of instants and a few malformed lines, until the dump
/// reaches [`SYNTH_MIN_BYTES`]. Every line but the torn ones is an
/// [`Event`] written by the exporter's `jsonl_line`, under a
/// `telemetry_meta` header with the fixed epoch 1 000 000 and rank 0, so
/// every run produces identical bytes.
fn cmd_synth(mut args: Vec<String>) -> Result<(), ExitCode> {
    if let Some(dir) = take_value(&mut args, "--ledger-dir") {
        return cmd_synth_ledger(dir, args);
    }
    let Some(out_path) = take_value(&mut args, "--out") else { return Err(usage()) };
    if !args.is_empty() {
        return Err(usage());
    }
    let file = std::fs::File::create(&out_path).map_err(|e| {
        eprintln!("profile: cannot write {out_path}: {e}");
        ExitCode::from(1)
    })?;
    let mut w = std::io::BufWriter::new(file);
    let mut written: u64 = 0;
    let mut seq: u64 = 0;
    let mut ts: u64 = 0;
    // Fixed-seed LCG: shape and timing variety without `rand`.
    let mut lcg: u64 = 0x9e3779b97f4a7c15;
    let mut next = |m: u64| {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (lcg >> 33) % m
    };
    let emit = |w: &mut std::io::BufWriter<std::fs::File>,
                    written: &mut u64,
                    line: String|
     -> Result<(), ExitCode> {
        *written += line.len() as u64 + 1;
        writeln!(w, "{line}").map_err(|e| {
            eprintln!("profile: write error on {out_path}: {e}");
            ExitCode::from(1)
        })
    };
    use EventKind::{Instant, SpanBegin, SpanEnd};
    let event = |seq: u64, ts_ns: u64, kind: EventKind, name: &'static str, attrs: Vec<Attr>| {
        export::jsonl_line(&Event { seq, ts_ns, name, kind, track: Track::Host, tid: 0, attrs })
    };
    let attr = |key: &'static str, value: AttrValue| Attr { key, value };
    let meta = vec![attr("run_epoch", AttrValue::U64(1_000_000)), attr("rank", AttrValue::U64(0))];
    emit(&mut w, &mut written, event(seq, ts, Instant, "telemetry_meta", meta))?;
    const MODES: [&str; 3] = ["BF16X2", "FLOAT_TO_BF16", "STANDARD"];
    const SHAPES: [(u64, u64, u64); 4] =
        [(64, 448, 2048), (128, 896, 4096), (256, 896, 4096), (64, 64, 64)];
    let mut burst = 0u64;
    while written < SYNTH_MIN_BYTES {
        let mode = AttrValue::Str(MODES[(burst % 3) as usize]);
        seq += 1;
        let burst_attrs = vec![attr("mode", mode.clone())];
        emit(&mut w, &mut written, event(seq, ts, SpanBegin, "burst", burst_attrs))?;
        for _ in 0..8 {
            seq += 1;
            ts += 1 + next(100);
            emit(&mut w, &mut written, event(seq, ts, SpanBegin, "qd_step", vec![]))?;
            seq += 1;
            ts += 1;
            emit(&mut w, &mut written, event(seq, ts, SpanBegin, "qd_propagate", vec![]))?;
            for _ in 0..4 {
                let (m, n, k) = SHAPES[next(4) as usize];
                let call = vec![
                    attr("callsite", AttrValue::Str("lfd::qd_propagate/cgemm")),
                    attr("m", AttrValue::U64(m)),
                    attr("n", AttrValue::U64(n)),
                    attr("k", AttrValue::U64(k)),
                    attr("mode", mode.clone()),
                ];
                seq += 1;
                ts += 1;
                emit(&mut w, &mut written, event(seq, ts, SpanBegin, "CGEMM", call))?;
                seq += 1;
                ts += 100 + next(5000);
                let wall_s = vec![attr("wall_s", AttrValue::F64((1 + next(50)) as f64 / 1e6))];
                emit(&mut w, &mut written, event(seq, ts, SpanEnd, "CGEMM", wall_s))?;
            }
            seq += 1;
            ts += 1 + next(200);
            emit(&mut w, &mut written, event(seq, ts, SpanEnd, "qd_propagate", vec![]))?;
            seq += 1;
            ts += 1;
            emit(&mut w, &mut written, event(seq, ts, SpanEnd, "qd_step", vec![]))?;
        }
        if burst % 97 == 11 {
            seq += 1;
            let rollback = vec![attr("step", AttrValue::U64(burst)), attr("mode", mode.clone())];
            emit(&mut w, &mut written, event(seq, ts, Instant, "rollback", rollback))?;
        }
        if burst % 193 == 42 {
            // A torn line — the first half of one — as a crashed writer
            // would leave behind.
            let line = event(seq, ts, SpanEnd, "burst", vec![]);
            emit(&mut w, &mut written, line[..line.len() / 2].to_string())?;
        }
        seq += 1;
        ts += 1 + next(50);
        emit(&mut w, &mut written, event(seq, ts, SpanEnd, "burst", vec![]))?;
        burst += 1;
    }
    w.flush().map_err(|e| {
        eprintln!("profile: write error on {out_path}: {e}");
        ExitCode::from(1)
    })?;
    eprintln!("profile: wrote {out_path} ({written} bytes, {burst} bursts)");
    Ok(())
}

/// `synth --ledger-dir`: a deterministic synthetic run directory (just
/// a `ledger.json`) for exercising the cross-run archive and
/// sentinel without running physics. `--slow-callsite`/`--slow-factor`
/// plant a wall-time slowdown at exactly one callsite — the CI trend
/// gate archives a clean and a slowed directory and asserts the
/// sentinel flags that callsite and nothing else.
fn cmd_synth_ledger(dir: String, mut args: Vec<String>) -> Result<(), ExitCode> {
    use dcmesh_telemetry::ledger::{LedgerMeta, ResidualHist, Row, Stats};
    let slow_callsite = take_value(&mut args, "--slow-callsite");
    let slow_factor: f64 = match take_value(&mut args, "--slow-factor") {
        Some(v) => v.parse().map_err(|_| usage())?,
        None => 1.0,
    };
    if !args.is_empty() {
        return Err(usage());
    }
    let mk_row = |callsite: &str, shape: &str, mode: &str, calls: u64, wall_s: f64, device_s: f64| {
        let mut residuals = ResidualHist::default();
        for i in 0..calls.min(32) {
            residuals.observe(1e-7 * (1.0 + (i % 7) as f64));
        }
        let factor = match &slow_callsite {
            Some(cs) if cs == callsite => slow_factor,
            _ => 1.0,
        };
        Row {
            callsite: callsite.to_string(),
            shape: shape.to_string(),
            mode: mode.to_string(),
            stats: Stats {
                calls,
                wall_s: wall_s * factor,
                device_s,
                device_samples: calls,
                abft_checks: calls.min(32),
                residuals,
                ..Stats::default()
            },
        }
    };
    let rows = vec![
        mk_row("lfd::qd_propagate/cgemm", "128x1024x4096", "FLOAT_TO_BF16", 180, 0.90, 0.45),
        mk_row("lfd::orth/cgemm", "128x128x4096", "FLOAT_TO_BF16", 60, 0.12, 0.06),
        mk_row("qxmd::forces/sgemm", "128x512x2048", "STANDARD", 40, 0.30, 0.20),
    ];
    let meta = LedgerMeta {
        version: dcmesh_telemetry::ledger::LEDGER_SCHEMA_VERSION,
        deck_hash: "0x5e1ec7ab1e000001".to_string(),
        ranks: 1,
        telemetry_level: "full".to_string(),
        rows: rows.len() as u64,
    };
    let path = std::path::Path::new(&dir);
    std::fs::create_dir_all(path).map_err(|e| {
        eprintln!("profile: cannot create {dir}: {e}");
        ExitCode::from(1)
    })?;
    let doc = dcmesh_telemetry::ledger::rows_json_with_meta(&meta, &rows);
    let ledger_path = path.join("ledger.json");
    write(&ledger_path.display().to_string(), &doc)?;
    eprintln!(
        "profile: wrote {} ({} rows{})",
        ledger_path.display(),
        rows.len(),
        match &slow_callsite {
            Some(cs) => format!(", {cs} slowed {slow_factor}x"),
            None => String::new(),
        }
    );
    Ok(())
}

fn cmd_archive(mut args: Vec<String>) -> Result<(), ExitCode> {
    let Some(archive_path) = take_value(&mut args, "--archive") else { return Err(usage()) };
    let mode_policy = take_value(&mut args, "--mode-policy");
    let [run_dir] = args.as_slice() else { return Err(usage()) };
    let rec = archive::collect_run(std::path::Path::new(run_dir), mode_policy.as_deref())
        .map_err(|e| {
            eprintln!("profile: {e}");
            ExitCode::from(1)
        })?;
    let appended =
        archive::append(std::path::Path::new(&archive_path), &rec).map_err(|e| {
            eprintln!("profile: {e}");
            ExitCode::from(1)
        })?;
    if appended {
        eprintln!(
            "profile: archived {} ({} ledger rows, deck {}, {} rank(s), policy {})",
            rec.run_id,
            rec.entries.len(),
            rec.deck_hash,
            rec.ranks,
            rec.mode_policy
        );
    } else {
        eprintln!("profile: {} already archived, skipped", rec.run_id);
    }
    Ok(())
}

fn read_archive_records(path: &str) -> Result<Vec<archive::RunRecord>, ExitCode> {
    let (records, warnings) = archive::read_archive(std::path::Path::new(path)).map_err(|e| {
        eprintln!("profile: {e}");
        ExitCode::from(1)
    })?;
    for w in warnings {
        eprintln!("profile: warning: {w}");
    }
    Ok(records)
}

fn cmd_trend(mut args: Vec<String>) -> Result<(), ExitCode> {
    let Some(archive_path) = take_value(&mut args, "--archive") else { return Err(usage()) };
    let benches: Vec<String> = core::iter::from_fn(|| take_value(&mut args, "--bench")).collect();
    let svg_path = take_value(&mut args, "--svg");
    if !args.is_empty() {
        return Err(usage());
    }
    let records = read_archive_records(&archive_path)?;
    let mut groups = trend::build_groups(&records);
    for b in &benches {
        let extra = trend::bench_history_groups(&read(b)?).map_err(|e| {
            eprintln!("profile: {b}: {e}");
            ExitCode::from(1)
        })?;
        groups.extend(extra);
    }
    let regressions = trend::detect(&groups);
    print!("{}", trend::render_report(&groups, &regressions));
    if let Some(p) = &svg_path {
        write(p, &trend::render_svg(&groups, &regressions))?;
        eprintln!("profile: wrote {p}");
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        eprintln!("profile: {} regression(s) flagged", regressions.len());
        Err(ExitCode::from(1))
    }
}

fn cmd_advise(mut args: Vec<String>) -> Result<(), ExitCode> {
    let Some(archive_path) = take_value(&mut args, "--archive") else { return Err(usage()) };
    let out = take_value(&mut args, "--out");
    if !args.is_empty() {
        return Err(usage());
    }
    let records = read_archive_records(&archive_path)?;
    let plan = advise::advise(&records);
    print!("{}", advise::render_advice(&plan));
    if let Some(p) = &out {
        write(p, &advise::advice_json(&plan))?;
        eprintln!("profile: wrote {p} ({} callsite plan(s))", plan.plan.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let cmd = argv.remove(0);
    let result = match cmd.as_str() {
        "flame" => cmd_flame(argv),
        "table" => cmd_table(argv),
        "merge" => cmd_merge(argv),
        "diff" => cmd_diff(argv),
        "watch" => cmd_watch(argv),
        "synth" => cmd_synth(argv),
        "archive" => cmd_archive(argv),
        "trend" => cmd_trend(argv),
        "advise" => cmd_advise(argv),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
