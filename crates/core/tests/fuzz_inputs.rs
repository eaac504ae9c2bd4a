//! Adversarial input for every on-disk reader: decks, checkpoints, CSV,
//! and the JSON documents of the observatory — the precision ledger, the
//! archive's `runs.jsonl` record and the `BENCH_*.json` history.
//!
//! Each JSON reader starts from its own writer's output and goes through
//! `adversarial/mutations.rs` (the shard run directory's crate-private
//! readers include the same file for `MANIFEST.json`, done files and
//! `report.json`): the whole document reads and re-writes byte-identical,
//! every proper prefix and every dropped member is an error naming what
//! is missing, a count that is `3.5` or `-1` is refused, `1e309` is
//! refused anywhere, and no byte flip panics. A checkpoint refuses every
//! prefix and a flip of every byte. A deck never panics the parser, and
//! every deck that parses is one the simulation accepts
//! (`LfdParams::validate`).

#[path = "adversarial/mutations.rs"]
mod mutations;

use bytes::Bytes;
use dcmesh::checkpoint::Checkpoint;
use dcmesh::config::{RunConfig, SystemPreset};
use dcmesh::output::read_csv;
use dcmesh_lfd::state::cosine_potential;
use dcmesh_lfd::{LaserPulse, LfdParams, LfdState, Mesh3};
use dcmesh_profile::{archive, history};
use dcmesh_telemetry::json::JsonValue;
use dcmesh_telemetry::ledger::{self, LedgerMeta, ResidualHist, Row, Stats};
use mutations::Reader;
use proptest::prelude::*;

/// A deck that parses must be one the simulation can start from.
fn parses_only_runnable(text: &str) {
    if let Ok(cfg) = RunConfig::parse(text) {
        assert_eq!(cfg.lfd_params().validate(), Ok(()), "{text:?} parsed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn deck_parser_never_panics(text in "\\PC{0,400}") {
        // Arbitrary printable input: Ok or Err, never a panic.
        parses_only_runnable(&text);
    }

    #[test]
    fn deck_parser_never_panics_on_structured_garbage(
        key in "[a-z_]{1,20}",
        value in "\\PC{0,30}",
    ) {
        parses_only_runnable(&format!("system = pto40-small\n{key} = {value}\n"));
    }

    #[test]
    fn checkpoint_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let _ = Checkpoint::<f32>::decode(Bytes::from(data.clone()));
        let _ = Checkpoint::<f64>::decode(Bytes::from(data));
    }

    #[test]
    fn checkpoint_decoder_rejects_header_bitflips(
        flip_byte in 0usize..32,
        flip_bit in 0u8..8,
    ) {
        // Build a real checkpoint, corrupt one header bit, decode.
        let mut raw = small_checkpoint(9).encode().to_vec();
        if flip_byte < raw.len() {
            raw[flip_byte] ^= 1 << flip_bit;
        }
        // Must not panic; magic/version/width flips must error.
        let result = Checkpoint::<f32>::decode(Bytes::from(raw));
        if flip_byte < 13 {
            prop_assert!(result.is_err(), "header corruption at byte {flip_byte} accepted");
        }
    }

    #[test]
    fn csv_reader_never_panics(text in "\\PC{0,400}") {
        let _ = read_csv(&text);
    }

    #[test]
    fn csv_reader_never_panics_with_valid_header(body in "\\PC{0,200}") {
        let text = format!("step,time_fs,ekin,epot,etot,eexc,nexc,aext,javg\n{body}");
        let _ = read_csv(&text);
    }
}

#[test]
fn deck_parser_good_and_bad_examples() {
    assert!(RunConfig::parse("system = pto40-small").is_ok());
    assert!(RunConfig::parse("").is_err());
    assert!(RunConfig::parse("system = pto9000").is_err());
    assert!(RunConfig::parse("system = pto40\ndt = banana").is_err());
    assert!(RunConfig::parse("system = pto40\ndt = -1").is_err());
    assert!(RunConfig::parse("system = pto40\nrecord_every = 0").is_err());
}

/// Decks the run loop used to panic on (its `LfdParams::validate`
/// asserts) or silently misread, each refused with the reason and, when
/// one line is at fault, that line.
#[test]
fn decks_the_simulation_cannot_run_are_refused_by_line() {
    for (deck, line, reason) in [
        ("system = pto40-small\ndt = inf\n", 2, "bad dt: not finite"),
        ("system = pto40-small\nmesh = 0\n", 0, "more orbitals (16) than grid points (0x0x0)"),
        ("system = pto40-small\nnorb = 0\nnocc = 0\n", 0, "n_orb must be positive"),
        ("system = pto40-small\nmesh = 2\n", 0, "more orbitals (16) than grid points (2x2x2)"),
        ("system = pto40-small\nmesh = 4000000\n", 0, "more orbitals (16) than grid points"),
        ("system = pto40-small\nsupercell = 0\n", 0, "bad mesh spacing 0"),
        ("system = pto40-small\nlaser_amplitude = NaN\n", 2, "bad laser_amplitude: not finite"),
        ("system = pto40-small\n\ndt = 0.01 # short\ndt = 0.02\n", 4, "\"dt\" repeats line 3"),
        ("# a deck\nsystem = pto40-small\n\ndt = banana\n", 4, "bad dt"),
        ("system = pto40-small\nflux = 1\nwarp = 9\n", 2, "unknown key \"flux\""),
        ("\nsystem = pto9000\n", 2, "unknown system preset \"pto9000\""),
    ] {
        let e = RunConfig::parse(deck).expect_err(deck);
        assert_eq!(e.line, line, "{deck:?}: {e}");
        assert!(e.message.contains(reason), "{deck:?}: {e}");
    }
    let anywhere = RunConfig::parse("dt = 0.01\nsystem = pto135-small\n").expect("system last");
    assert_eq!((anywhere.supercell, anywhere.dt), (3, 0.01));
}

/// Every prefix and a spread of byte flips of every preset's deck text.
#[test]
fn every_deck_that_reads_is_one_the_simulation_accepts() {
    for preset in [
        SystemPreset::Pto40Small,
        SystemPreset::Pto135Small,
        SystemPreset::Pto40,
        SystemPreset::Pto135,
    ] {
        let text = RunConfig::preset(preset).to_deck_text().expect("deck text");
        assert!(RunConfig::parse(&text).is_ok(), "{preset:?}");
        for (i, _) in text.char_indices() {
            parses_only_runnable(&text[..i]);
        }
        for flipped in mutations::flips(text.as_bytes(), &format!("{preset:?}")) {
            parses_only_runnable(&String::from_utf8_lossy(&flipped));
        }
    }
}

/// A checkpoint of a `points`³ mesh with two orbitals, as the run loop
/// writes one.
fn small_checkpoint(points: usize) -> Checkpoint<f32> {
    let p = LfdParams {
        mesh: Mesh3::cubic(points, 0.5),
        n_orb: 2,
        n_occ: 1,
        dt: 0.02,
        vnl_strength: 0.1,
        taylor_order: 2,
        laser: LaserPulse::off(),
        induced_coupling: 0.0,
    };
    let state = LfdState::<f32>::initialize(&p, cosine_potential(&p.mesh, 0.1));
    Checkpoint { state, system: dcmesh_qxmd::pto_supercell(1), steps_done: 3, nexc: 0.25 }
}

#[test]
fn a_checkpoint_reads_back_whole_and_refuses_every_prefix_and_flip() {
    let raw = small_checkpoint(4).encode().to_vec();
    let read = |bytes: &[u8]| Checkpoint::<f32>::decode(Bytes::from(bytes.to_vec()));
    assert_eq!(read(&raw).expect("the whole file").encode().to_vec(), raw);
    for i in 0..raw.len() {
        assert!(read(&raw[..i]).is_err(), "the {i}-byte prefix was read");
    }
    // Every byte, each XORed with a value the proptest generator draws.
    let mut rng = proptest::test_runner::Rng64::from_name("checkpoint");
    for i in 0..raw.len() {
        let mut flipped = raw.clone();
        flipped[i] ^= 1 + rng.below(255) as u8;
        assert!(read(&flipped).is_err(), "a flip of byte {i} was read");
    }
}

/// Ledger rows exercising every field: residuals in several decades and
/// the overflow bucket, a non-finite maximum (written `null`), a modelled
/// device time (so `time_misfit` is a number) and an all-zero row.
fn ledger_rows() -> Vec<Row> {
    let mut h = ResidualHist::default();
    for v in [3.1e-9, 0.7, f64::INFINITY] {
        h.observe(v);
    }
    let mut nan_max = h.clone();
    nan_max.max = f64::NAN;
    let row = |callsite: &str, calls, residuals| Row {
        callsite: callsite.to_string(),
        shape: "128x1024x4096".to_string(),
        mode: "FLOAT_TO_BF16".to_string(),
        stats: Stats {
            calls,
            wall_s: 0.123456789012345,
            device_s: 0.0456,
            device_samples: calls,
            escalations: 1,
            rollbacks: 2,
            health_violations: 3,
            nonfinite_outputs: 4,
            abft_checks: 5,
            abft_violations: 6,
            residuals,
        },
    };
    let idle = Row { stats: Stats::default(), ..row("supervisor/scf", 0, ResidualHist::default()) };
    vec![row("lfd::qd_propagate/cgemm", 180, h), row("md/cgemm", 7, nan_max), idle]
}

/// The numbers of a ledger row that are not counts.
fn ledger_count(path: &str) -> bool {
    !["wall_s", "device_s", "time_misfit", "residuals.max"].iter().any(|r| path.ends_with(r))
}

#[test]
fn a_ledger_survives_every_adversarial_case() {
    let rows = ledger_rows();
    let meta = LedgerMeta {
        version: ledger::LEDGER_SCHEMA_VERSION,
        deck_hash: "0x00c0ffee00c0ffee".to_string(),
        ranks: 4,
        telemetry_level: "full".to_string(),
        rows: rows.len() as u64,
    };
    let read = |t: &str| ledger::parse_ledger(t).map(|(m, r)| ledger::rows_json_with_meta(&m, &r));
    let (optional, count) = (|_: &str| false, ledger_count);
    let reader = Reader { name: "ledger.json", read: &read, optional, count };
    mutations::check(&reader, &ledger::rows_json_with_meta(&meta, &rows));
}

#[test]
fn an_archive_record_survives_every_adversarial_case() {
    let record = archive::RunRecord {
        run_id: "run-00000000deadbeef".to_string(),
        deck_hash: "0x00000000deadbeef".to_string(),
        ranks: 4,
        domains: 4,
        mode_policy: "FLOAT_TO_BF16".to_string(),
        telemetry_level: "events".to_string(),
        elapsed_ms: 1234,
        restarts: 1,
        heartbeat_misses: 1,
        escalations: 2,
        sdc_recoveries: 3,
        source: "runs/a \"quoted\" dir".to_string(),
        entries: ledger_rows(),
    };
    let read = |t: &str| archive::parse_record(t).map(|r| archive::record_json(&r));
    let (optional, count) = (|_: &str| false, ledger_count);
    let reader = Reader { name: "runs.jsonl", read: &read, optional, count };
    mutations::check(&reader, &archive::record_json(&record));
}

#[test]
fn a_bench_history_survives_every_adversarial_case() {
    let mut old = history::Entry::new("2026-10-16-parent", 2);
    old.series("taylor_propagate_12x16", "f32", 400_000.0);
    let mut new = history::Entry::new("2026-10-17", 2);
    new.series("taylor_propagate_12x16", "f32", 380_000.5);
    new.series("taylor_propagate_12x16", "f64", 900_000.0);
    new.extra("k_scale", JsonValue::Number(64.0));
    new.extra("microkernel_f32", JsonValue::String("avx512f fma 16x16".into()));
    new.extra("eigh_overlap_64_defect", JsonValue::Number(1.5e-15));
    let entries = history::merge(history::merge(Vec::new(), old), new);
    let read = |t: &str| history::parse(t).map(|h| history::render(&[], &h));
    // Only the dates are required: extras and series come and go by binary.
    fn optional(p: &str) -> bool {
        p != "history" && !(p.starts_with("history[") && p.ends_with("].date"))
    }
    let reader = Reader { name: "BENCH_*.json", read: &read, optional, count: |_| false };
    mutations::check(&reader, &history::render(&[], &entries));
}
