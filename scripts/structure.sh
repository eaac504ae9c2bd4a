#!/usr/bin/env bash
# Structure guards: each function below keeps one deleted mechanism
# deleted, so every concern keeps one mechanism. The comment above a guard
# is its reason. "Non-test code" is scripts/nontest.awk's rule everywhere.
# The script runs every guard, prints `FAIL <guard>` and the offending
# lines for each one that fires, and exits 1 if any did. It needs no
# build; `cargo test` runs it (crates/bench/tests/structure.rs).
#
#   bash scripts/structure.sh
cd "$(dirname "$0")/.." || exit 1

# Non-test lines of the given files, as `FILE:LINE: text`.
nontest() { awk -f scripts/nontest.awk "$@"; }

# mkl-lite's mutable state lives in the calling thread's
# BlasContext. A lock- or atomic-typed `static` is how a
# process-global sneaks back in (immutable `OnceLock`s and the
# `thread_local!` bodies are fine). Nor may the metric registry
# come back — the process totals that copied per-thread values,
# with their publishers and dump — or the two settable ring
# bounds: a stream's losses ride in its own header.
no_process_global_blas_state() {
  if grep -rnE 'static\s+(mut\s+)?\w+\s*:\s*(\w+::)*(Mutex|RwLock|ReentrantMutex|Atomic\w*)\b' crates/blas/src; then
    echo "process-global mutable state in crates/blas/src" >&2
    exit 1
  fi
  if test -e crates/telemetry/src/metrics.rs \
      || grep -rnE 'metrics::(counter|gauge)|prometheus_dump|publish_metrics|MKL_VERBOSE_BUFFER|TELEMETRY_BUFFER' crates; then
    echo "the metric registry, or a settable ring bound, is back" >&2
    exit 1
  fi
}

# The same rule for the record of a run: dcmesh-telemetry's level,
# event ring and live ledger live in the calling thread's
# Recorder. The only lock- or atomic-typed `static`s left
# are the two that do not belong to a run — the dense thread-id
# allocator and the string interner — and the sharded sink and the
# level locks must not come back under their old names. With them went the last users of
# the parking_lot shim's ReentrantMutex and RwLock.
no_process_global_telemetry_state() {
  statics=$(grep -rnE 'static\s+(mut\s+)?\w+\s*:\s*(\w+::)*(Mutex|RwLock|ReentrantMutex|Atomic\w*)\b' crates/telemetry/src || true)
  extra=$(echo "$statics" \
    | grep -vE '^crates/telemetry/src/sink\.rs:[0-9]+:static NEXT_TID: AtomicU64 ' \
    | grep -vE '^crates/telemetry/src/callsite\.rs:[0-9]+: +static REGISTRY: Mutex<BTreeSet<' || true)
  if [ -n "$extra" ]; then
    echo "$extra"
    echo "process-global mutable state in crates/telemetry/src" >&2
    exit 1
  fi
  test "$(echo "$statics" | wc -l)" -eq 2
  if grep -rnE '\b(SHARD_COUNT|OVERRIDE_LOCK|INIT_LOCK)\b' crates/telemetry/src; then
    echo "the sharded sink / level locks are back in crates/telemetry/src" >&2
    exit 1
  fi
  if grep -rnE '\b(ReentrantMutex|RwLock)\b' shims/parking_lot/src; then
    echo "shims/parking_lot defines more than the Mutex its users take" >&2
    exit 1
  fi
}

# The state that crosses an MD boundary is `Checkpoint<T>` and the
# trajectory advances through `runner::Run::burst` only. The second
# and third run loops, their crash plan and the tuple spelling of a
# restart point must not come back, nor the per-run counter that
# could only ever read 0; the burst driver and the verify replay
# stay narrow enough not to need a lint waiver; and snapshot,
# rollback and replay clone the `Checkpoint` while a checkpoint
# write clones nothing — a `state.clone()` / `system.clone()` in
# the non-test code of the two files is a second spelling.
one_run_loop_one_restart_point() {
  if grep -rnE '\b(run_with_checkpoints\w*|CrashPlan|SimulatedCrash|ResumePoint|lowdin_fallbacks)\b' crates tests examples; then
    echo "a deleted run loop, crash plan, restart-point alias or dead counter is back" >&2
    exit 1
  fi
  for f in crates/core/src/runner.rs crates/core/src/supervisor.rs; do
    if grep -n 'too_many_arguments' "$f"; then
      echo "$f needs a too_many_arguments waiver again" >&2
      exit 1
    fi
    if nontest "$f" | grep -E '\b(state|system)\.clone\(\)'; then
      echo "$f copies half a restart point instead of cloning the Checkpoint" >&2
      exit 1
    fi
  done
}

# A run's per-callsite record is the ledger each rank's Recorder
# folds exactly. `profile watch` reads the snapshots the ranks
# keep through the loader `profile archive` folds them with; the
# second ledger it used to re-derive from the sampled span stream
# (and the tailing / rewind machinery under it) must not come
# back, and the watch module touches neither the event-stream
# ingester nor a span. Flame and diff share one frame tree, one
# SVG and one ANSI renderer, and every SVG one escaper; the
# device timeline is a fold over the call record, not a replay
# loop around a lock.
one_ledger_live_and_at_rest() {
  if grep -rnE 'WatchAcc|WatchLedger|WatchSession|fn add_span|fn add_instant' crates/profile/src; then
    echo "a span-to-ledger-row reconstruction is back in crates/profile/src" >&2
    exit 1
  fi
  if nontest crates/profile/src/watch.rs | grep -E 'ingest|Span\b|Seek|fn poll'; then
    echo "profile watch reads event streams again" >&2
    exit 1
  fi
  grep -q 'archive::load_ledger' crates/profile/src/watch.rs
  test "$(grep -rnE 'fn (svg|ansi)_frame|fn (svg|xml)_escape\(|struct (Diff)?Frame\b' crates/profile/src | wc -l)" -eq 4
  test "$(grep -rn 'fn write_atomic' crates shims --include='*.rs' | wc -l)" -eq 1
  if grep -nE 'Mutex|parking_lot' crates/xe-gpu/src/trace.rs; then
    echo "xe_gpu::Tracer is behind a lock again" >&2
    exit 1
  fi
}

# `dcmesh_telemetry::export` is the one writer (`jsonl_line`) and
# the one lenient reader (`read_line`) of events.jsonl, and the one
# Chrome-trace writer: `chrome_trace` over one or more streams, so
# a run's trace.json is the one-rank case of `profile merge`. The
# second row reader, the second Chrome writer and the ingester's
# unread instant/device collections must not come back, and no
# other telemetry or profile source spells the stream's fields.
one_event_stream_schema() {
  if test -e crates/profile/src/merge.rs; then
    echo "crates/profile/src/merge.rs is back" >&2
    exit 1
  fi
  if grep -rnE 'struct (RankStream|InstantEvent|DeviceSlice)\b|fn (meta_of|merge_jsonl)\b' crates; then
    echo "a second event-stream reader or Chrome writer is back under crates/" >&2
    exit 1
  fi
  if find crates/telemetry/src crates/profile/src -name '*.rs' ! -path crates/telemetry/src/export.rs -exec awk -f scripts/nontest.awk {} + \
      | grep -E '\\?"(traceEvents|ts_ns)\\?"'; then
    echo "a telemetry or profile source spells the event-stream schema outside telemetry::export" >&2
    exit 1
  fi
}

# The paper's claims are rows of one table (`dcmesh_bench::claims`)
# that `study` evaluates, checks and writes to REPRO.json. The
# per-table / per-figure / per-ablation binaries it replaced must
# not come back, in the bin directory or as a name a document or
# the CI workflow still tells someone to run (a name followed by a
# dot is a claim id, `fig1.ekin.…`, and is what replaced it).
one_reproduction_binary() {
  bins=$(ls crates/bench/src/bin | sort | tr '\n' ' ')
  if [ "$bins" != "gemm_hostperf.rs linalg_hostperf.rs stencil_hostperf.rs study.rs telemetry_check.rs " ]; then
    echo "crates/bench/src/bin holds: $bins" >&2
    exit 1
  fi
  if grep -nE '\b(table[1-7]|fig[123][ab]?|ablate_[a-z0-9_]+|ext_[a-z_]+)\b' \
      .github/workflows/ci.yml README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md \
      | grep -vE '\b(table[1-7]|fig[123][ab]?|ablate_[a-z0-9_]+)\.[a-z0-9_*]'; then
    echo "a deleted reproduction binary is still named" >&2
    exit 1
  fi
  grep -q 'pub mod claims;' crates/bench/src/lib.rs
}

# A sharded run's directory lives behind one module: every
# run-directory path helper is defined in shard/protocol.rs, next
# to each file's writer and strict reader. MANIFEST.json is the
# workers' only input besides their identity, so the three fault
# settings are read once, by dcmesh-shard's main. The coordinator
# keeps one record of its decisions (coord.log, report.json): its
# telemetry copies, the checker that cross-checked them, the
# kill-plan environment channel and the worker-side period reader
# must not come back; no file under shard/ needs a lint waiver.
one_fleet_protocol() {
  test ! -e crates/core/src/shard.rs
  helpers=$(grep -rnE 'fn [a-z_]+\([^)]*\) -> PathBuf' crates/core/src/shard crates/core/src/bin \
    | grep -v '^crates/core/src/shard/protocol.rs:' || true)
  if [ -n "$helpers" ]; then
    echo "$helpers"
    echo "a run-directory path helper outside crates/core/src/shard/protocol.rs" >&2
    exit 1
  fi
  if grep -rnE 'events-coord|metrics-coord|shard_[a-z_]+_total|SHARD_KILL_ENV|env_period|--shard-dir' \
      crates tests .github/workflows/ci.yml README.md DESIGN.md .claude/skills/verify/SKILL.md; then
    echo "a deleted copy of the coordinator's record, or its channel, is back" >&2
    exit 1
  fi
  readers=$(grep -rlE 'DCMESH_(BITFLIP|ABFT_PERIOD|VERIFY_BURSTS)' crates | sort | tr '\n' ' ')
  if [ "$readers" != "crates/core/src/bin/dcmesh_shard.rs " ]; then
    echo "fault settings named outside dcmesh-shard's main: $readers" >&2
    exit 1
  fi
  if grep -rn 'too_many_arguments' crates/core/src/shard; then
    echo "crates/core/src/shard needs a too_many_arguments waiver" >&2
    exit 1
  fi
}

# How many BLAS calls ran and what they cost is the ledger's: it
# counts every call at TELEMETRY=events and full, per (callsite,
# shape, mode). Call spans exist at full only, one per call and
# unweighted, so the 1-in-N span sampler, its weight and the
# persisted copies of its interval must not come back, nor the
# process-global call counter and histograms that duplicated the
# ledger, nor the batch/stream fork of the profile CLI, nor the
# per-routine summary of the MKL_VERBOSE ring that aggregated the
# same calls a second time.
one_quantitative_record() {
  if grep -rnE 'sampled_span|sample_weight|TELEMETRY_SAMPLE|sample_period|\bsample_n\b|mkl_blas_calls_total|mkl_blas_call_wall_ns|metrics::Histogram|--stream\b|verbose::summarize|struct CallSummary|fn effective_seconds' \
      crates tests README.md DESIGN.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml; then
    echo "a second record of BLAS calls, or the span sampler behind it, is back" >&2
    exit 1
  fi
}

# The FLOAT_TO_* modes are one scheme: `ComputeMode::systolic()`
# is (format, depth) and every other property of a mode derives
# from it. There is one split (`numerics::split::<D>`), one
# cascade and one pack conversion, each a loop to `D`, and one
# ceiling (`MAX_SPLIT_DEPTH`). The per-depth split types, the
# sequential slice splitter, the executed-products table, the
# per-depth panics and ComputeMode's literal Table II must not
# come back, nor a match arm on the x2/x3 variants outside
# mode.rs in non-test code (cut at `mod tests` like
# scripts/nontest_loc.sh).
one_split_dial() {
  if grep -rnE 'Split2|Split3|fn split_slice\(|cascade_products|unsupported split depth|split depth must be 1, 2 or 3' \
      crates tests README.md DESIGN.md .claude/skills/verify/SKILL.md; then
    echo "a per-depth split, or a per-depth table or panic, is back" >&2
    exit 1
  fi
  if grep -n 'fn theoretical_speedup' crates/blas/src/mode.rs; then
    echo "ComputeMode spells Table II again; DeviceSpec::theoretical_speedup derives it" >&2
    exit 1
  fi
  if [ "$(grep -rnE 'const MAX_SPLIT_DEPTH\b' crates shims --include='*.rs' | wc -l)" -ne 1 ]; then
    echo "MAX_SPLIT_DEPTH must be defined exactly once" >&2
    exit 1
  fi
  arms=$(find crates/*/src -name '*.rs' ! -path crates/blas/src/mode.rs -exec awk -f scripts/nontest.awk {} + | awk '
      { text = $0; sub(/^[^:]*:[0-9]+: /, "", text) }
      text ~ /FloatToBf16x[23].*=>|FloatToBf16x[23][[:space:]]*\|([^|]|$)|^[[:space:]]*\|[[:space:]]*(ComputeMode::)?FloatToBf16x[23]/')
  if [ -n "$arms" ]; then
    echo "$arms"
    echo "a mode property re-lists the split modes by name outside mode.rs" >&2
    exit 1
  fi
}

# Threads come from one place: the rayon shim's persistent pool,
# which reads the machine's thread count once. No simulation crate
# starts a thread of its own in non-test code (cut at `mod tests`
# like scripts/nontest_loc.sh; the shard worker's heartbeat writer
# lives in crates/core), and no document or module doc still
# calls the shim sequential.
one_pool() {
  readers=$(grep -rlE 'available_parallelism' crates shims tests examples --include='*.rs' | sort | tr '\n' ' ')
  if [ "$readers" != "shims/rayon/src/lib.rs " ]; then
    echo "the thread count is read outside shims/rayon/src/lib.rs: $readers" >&2
    exit 1
  fi
  spawns=$(find crates/blas/src crates/lfd/src crates/numerics/src crates/qxmd/src -name '*.rs' -exec awk -f scripts/nontest.awk {} + \
      | grep -E 'thread::(spawn|scope)|thread::Builder' || true)
  if [ -n "$spawns" ]; then
    echo "$spawns"
    echo "a thread started outside the rayon pool" >&2
    exit 1
  fi
  if grep -rniE 'sequential shim|never spawns|executes sequentially' shims crates tests README.md DESIGN.md .claude/skills/verify/SKILL.md; then
    echo "a document still calls the rayon shim sequential" >&2
    exit 1
  fi
}

# gemm_hostperf, stencil_hostperf and linalg_hostperf share one
# command line, one sampler and one scaling row
# (`dcmesh_bench::layer`), and one module owns the BENCH_*.json
# history format (`dcmesh_profile::history`): no binary keeps a
# timing loop, a history merger or a hand-written history of its
# own. The options that only ever took one value are constants
# (the zero-allocation, split-ratio, triangle and linalg-bound
# checks always run; --seconds-per-row replaced the batch counts;
# trace and ledger attribution are tests in
# crates/bench/tests/telemetry_gates.rs, and telemetry_check is the
# overhead gate alone, under a fixed 2 % ceiling, with no options)
# and must not come back in code, docs or the CI workflow.
one_layer_benchmark() {
  if grep -rnE 'fn (measure|sample)\(|merged_history|"history\\?"' crates/bench/src/bin; then
    echo "a layer benchmark keeps its own sampler or history writer" >&2
    exit 1
  fi
  if grep -rnE -- '--(reps|warmup|from-trace|tolerance-pct|ledger-gate|max-overhead-pct|out-dir|advise-gate|overhead-gate)\b|--enforce-[a-z]|--max-[a-z0-9-]*-ratio' \
      crates README.md DESIGN.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml; then
    echo "a layer-benchmark option that became a constant is back" >&2
    exit 1
  fi
}

# Tier-1 is the one correctness gate: a check that times nothing is a
# test beside the code it checks, run by `cargo test`. The CI workflow
# times things and uploads what they measured; its correctness-only
# jobs, the claims run and its REPRO.json diff, the fleets, the profile
# CLI runs, the structure-guard step and the shell that checked their
# output must not come back there. The overhead gate and the trace
# test read one span count.
one_correctness_gate() {
  if grep -nE '^  (repro-gate|advise-gate):|--bin study|dcmesh-shard|profile (synth|trend|watch|merge|archive|table|flame)|\bjq\b|structure\.sh' \
      .github/workflows/ci.yml | grep -vE '^[0-9]+: *#'; then
    echo "the CI workflow checks correctness outside tier-1 again" >&2
    exit 1
  fi
  test "$(grep -rnE 'const SPANS_PER_QD_STEP\b' crates tests --include='*.rs' | wc -l)" -eq 1
}

# Every on-disk JSON document (ledger, archive record, history,
# MANIFEST.json, done files, report.json) is read through one
# accessor set, `dcmesh_telemetry::json`: a member that is missing
# or mistyped is an error naming its dotted path, never a default.
# The per-reader copies of the accessors must not come back, nor
# the archive's lenient re-read of a run directory's files.
# No reader for a format that nothing writes: the run-record CSV
# codec must not come back.
one_strict_reader() {
  copies=$(grep -rnE 'fn (field|field_str|field_real|field_count|as_count|count_field|str_field|bool_field|array_field)\b' \
      crates shims tests examples --include='*.rs' | grep -v '^crates/telemetry/src/json.rs:' || true)
  if [ -n "$copies" ]; then
    echo "$copies"
    echo "a JSON accessor defined outside crates/telemetry/src/json.rs" >&2
    exit 1
  fi
  if grep -nE 'unwrap_or\(0\.0\) as u64|if let Ok\(doc\) = json::parse' crates/profile/src/archive.rs; then
    echo "the archive reads a run file leniently again" >&2
    exit 1
  fi
  if grep -rnE 'fn (read|write)_csv\b' crates shims tests examples --include='*.rs'; then
    echo "a CSV codec is back; no program writes or reads run CSVs" >&2
    exit 1
  fi
}

# The supervisor has one escalation direction (up, sticky) and no
# dormant bounds: the health checks are two stateless functions
# whose bounds are constants, and SupervisorConfig keeps only the
# settings a binary, deck or shard manifest sets (checkpoint_dir,
# abft_check_period, verify_bursts). The configurable monitor, the
# opt-in rate/defect/drift bounds, de-escalation, the replay
# counter and a policy-wide escalation rule beside the ladder must
# not come back.
one_supervisor_policy() {
  if grep -rnE 'HealthConfig|HealthMonitor|[Dd]eescalat|max_nexc_rate|max_scf_defect|max_shadow_drift|burst_verification_counter|ExcitationRate|ShadowDriftRunaway|escalate_to' \
      crates tests README.md DESIGN.md .claude/skills/verify/SKILL.md; then
    echo "a removed supervisor option or health bound is back" >&2
    exit 1
  fi
  fields=$(awk '/^pub struct SupervisorConfig \{/ { body = 1; next }
                body && /^\}/ { exit }
                body && /^    pub [a-z_0-9]+:/ { n++ }
                END { print n + 0 }' crates/core/src/supervisor.rs)
  if [ "$fields" -ne 3 ]; then
    echo "SupervisorConfig has $fields pub fields, not 3" >&2
    exit 1
  fi
}

# The complex routines pack straight from interleaved storage
# into the one blocked driver (`gemm_packed`). The structure they
# replaced — `deinterleave_op` into full-size planes, a negated
# `aim_neg` copy, four independent real GEMMs — lives on only as
# the test reference in gemm/reference.rs (compiled under
# `#[cfg(test)]`). And the kernel, tile and pack strategy are
# chosen by the ISA ladder (`Rung`) alone: nothing under
# gemm/ may read the environment. Each operand is packed once per
# k-block per call — there is no second pass over the k-blocks,
# so nothing under gemm/ spells one; both `f64` SIMD tiles fuse
# multiply-add like the `f32` ones; and a Hermitian rank-k update
# is the driver's tile filter entered through `gemm_call` under
# its own name, never a wrapper around the public GEMMs. The
# pool's thread count is read once outside tests, where
# `gemm_packed` chooses a product's schedule (rows, depth or one
# thread): no second place decides how a product is parallelised.
one_blocked_gemm_driver_no_knob() {
  if grep -rnE 'deinterleave_op|aim_neg' crates/blas/src --include='*.rs' \
      | grep -v '^crates/blas/src/gemm/reference.rs:'; then
    echo "the four-call complex structure is back outside the test reference" >&2
    exit 1
  fi
  drivers=$(grep -rnE '\.micro\)\(' crates/blas/src --include='*.rs' | wc -l)
  if [ "$drivers" -ne 1 ]; then
    echo "expected the microkernel to be invoked from exactly one blocked driver, found $drivers call sites" >&2
    exit 1
  fi
  if grep -rnE 'env::var|env!\(|option_env!' crates/blas/src/gemm; then
    echo "crates/blas/src/gemm reads the environment" >&2
    exit 1
  fi
  grep -q '#\[cfg(test)\]' crates/blas/src/gemm/mod.rs
  grep -A1 '#\[cfg(test)\]' crates/blas/src/gemm/mod.rs | grep -q 'mod reference;'
  if grep -rniE 'sweep' crates/blas/src/gemm; then
    echo "a sweep index is back under crates/blas/src/gemm" >&2
    exit 1
  fi
  for tile in f64_avx512 f64_avx2; do
    grep -A4 "$tile / ${tile}_impl" crates/blas/src/gemm/kernel.rs | grep -q 'fmadd_pd'
  done
  if nontest crates/blas/src/herk.rs | grep -E '\b(cgemm|zgemm)\b'; then
    echo "herk.rs is back on the public cgemm/zgemm" >&2
    exit 1
  fi
  grep -q 'gemm_call("ZHERK"' crates/blas/src/herk.rs
  reads=$(nontest $(ls crates/blas/src/gemm/*.rs | grep -v '/reference.rs$') | grep -c 'current_num_threads' || true)
  if [ "$reads" -ne 1 ]; then
    echo "expected one read of the pool's thread count under crates/blas/src/gemm, found $reads" >&2
    exit 1
  fi
  grep -A2 'current_num_threads' crates/blas/src/gemm/kernel.rs | grep -q 'Schedule::choose'
}

# A GEMM's tile is chosen in one place, `MicroArch::tile(rung, m)`:
# the rung from the ISA ladder, the height of the `f32` AVX-512
# tile (24 or 16 rows) from the product's own `m`. Nothing else
# names a tile (`simd_tile!`) or instantiates the `f32` AVX-512
# body, every call site passes `m` (`Exec::host(m)`), and a task's
# panels stay capped in rows (`task_panels`: 16 panels, at most
# 256 rows), so a 24-row task keeps a 16-row one's L2 budget and
# `splits` keeps no panel threshold of its own.
one_tile_chooser() {
  kernel=crates/blas/src/gemm/kernel.rs
  outside_tile() {
    awk '/^    fn tile\(.*\{$/ { skip = 1 } !skip { print FILENAME ":" FNR ": " $0 } skip && /^    }$/ { skip = 0 }' "$kernel"
    grep -rn '' crates --include='*.rs' | grep -v "^$kernel:"
  }
  test "$(grep -c '^    fn tile(rung: Rung, m: usize) -> MicroKernel<f32> {$' "$kernel")" -eq 1
  if outside_tile | grep -E 'simd_tile!\('; then
    echo "a tile is named outside MicroArch::tile" >&2
    exit 1
  fi
  if outside_tile | grep -E '\bf32_avx512\b' | grep -v 'f32_avx512 / f32_avx512_impl:'; then
    echo "the f32 AVX-512 tile body is instantiated outside MicroArch::tile" >&2
    exit 1
  fi
  if grep -rnE 'Exec::(host|sans_microkernel)\(\)' crates --include='*.rs'; then
    echo "a GEMM call takes the host's tile without its m" >&2
    exit 1
  fi
  if grep -rnE '\bPAR_(PANELS|ROWS)\b' crates/blas/src --include='*.rs'; then
    echo "a split threshold is back beside task_panels" >&2
    exit 1
  fi
  grep -qE '^    MC_PANELS\.min\(MC_ROWS / mr\)$' "$kernel"
  grep -qE '^const MC_ROWS: usize = 256;' "$kernel"
}

# Every level-3 routine runs one body (`gemm::level3`): one shape
# check, one α = 0 path, one pooled accumulator and one α/β
# writeback for all seven. What differs per call is the element
# type's (`element::Element`): its domain, the mode it runs in and
# its product's structure, so no entry point spells a `Domain::`
# or a mode, and no side door into the driver is left.
one_level_3_body() {
  if grep -rnE 'fn (real_gemm_impl|complex_gemm_impl|complex_gemm_with|combine_rows|scale_rows|f64_mode|herk_product|matmul_acc_lowp|matmul_acc)\b' \
      crates/blas/src --include='*.rs'; then
    echo "a second level-3 body or a side door into the driver is back" >&2
    exit 1
  fi
  if grep -rnE 'trait (AbftElem|FaultTarget)\b' crates --include='*.rs'; then
    echo "a second element trait is back" >&2
    exit 1
  fi
  for f in crates/blas/src/gemm/mod.rs crates/blas/src/herk.rs; do
    if nontest "$f" | grep 'Domain::'; then
      echo "$f spells a domain: the element type decides it" >&2
      exit 1
    fi
  done
  takes=$(nontest crates/blas/src/gemm/mod.rs | grep -c 'take_zeroed' || true)
  if [ "$takes" -ne 1 ]; then
    echo "expected one accumulator take in gemm/mod.rs, found $takes" >&2
    exit 1
  fi
}

# Every SIMD kernel is one body compiled per rung of one ladder,
# `dcmesh_numerics::Rung` (avx512f -> avx2+fma -> portable), and
# `Rung` is the only code that asks the CPU what it has. The pack
# conversion and gather, the stencil and the GEMM tiles dispatch
# on it. Intrinsics are left only where the compiler could not
# match them: the GEMM tiles (`simd_micro!`) and
# stencil_hostperf's peak chains. No second rung type exists.
one_isa_ladder() {
  detect=$(grep -rlE 'is_x86_feature_detected!' crates --include='*.rs' | sort)
  if [ "$detect" != "crates/numerics/src/rung.rs" ]; then
    echo "is_x86_feature_detected! outside the one ladder:" $detect >&2
    exit 1
  fi
  if grep -rnE '_mm(256|512)_' crates --include='*.rs' \
      | grep -vE '^crates/(blas/src/gemm/kernel.rs|bench/src/bin/stencil_hostperf.rs):'; then
    echo "SIMD intrinsics outside the GEMM tiles and stencil_hostperf's chains" >&2
    exit 1
  fi
  if grep -rnE 'enum (Lanes|Rung)\b' crates --include='*.rs' | grep -v '^crates/numerics/'; then
    echo "a second ISA ladder type outside dcmesh-numerics" >&2
    exit 1
  fi
}

# The SCF boundary's linear algebra is mkl-lite calls plus one
# eigensolver. What it replaced lives on only as test references:
# the scalar Löwdin apply (summed over `reduce::sum_with`) in
# orth.rs's test module, cyclic Jacobi in hermitian/jacobi.rs
# behind `#[cfg(test)]`. Nothing under crates/linalg/src may read
# the environment to choose between them.
one_level_3_fp64_boundary_no_knob() {
  for f in overlap inverse_sqrt apply_right_in_place lowdin_orthonormalize; do
    body=$(sed -n "/^\(pub \)\?fn $f(/,/^}/p" crates/linalg/src/orth.rs)
    test -n "$body"
    if echo "$body" | grep -n 'reduce::sum_with'; then
      echo "$f is back on scalar reduce::sum_with loops" >&2
      exit 1
    fi
  done
  if grep -rnE 'fn eigh_jacobi|fn off_diagonal_mass' crates/linalg/src --include='*.rs' \
      | grep -v '^crates/linalg/src/hermitian/jacobi.rs:'; then
    echo "the Jacobi sweep is back outside the test oracle" >&2
    exit 1
  fi
  grep -B1 'mod jacobi;' crates/linalg/src/hermitian.rs | grep -q '#\[cfg(test)\]'
  if grep -rnE 'env::var|env!\(|option_env!' crates/linalg/src; then
    echo "crates/linalg/src reads the environment" >&2
    exit 1
  fi
}

# Every function named one_* or no_* is a guard. Each runs in its own
# subshell under `set -e`, as a CI step would: a bare `test` or `grep -q`
# that fails fires the guard and prints the command.
failed=0
for guard in $(declare -F | awk '$3 ~ /^(one|no)_/ { print $3 }'); do
  out=$(set -eE; trap 'echo "failed: $BASH_COMMAND"' ERR; "$guard" 2>&1)
  if [ $? -ne 0 ]; then
    echo "FAIL $guard"
    echo "$out"
    failed=1
  fi
done
exit "$failed"
