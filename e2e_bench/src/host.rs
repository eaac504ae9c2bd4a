//! What the machine looked like when a result was taken: identity
//! (cores, CPU model, caches) plus two measured rates, so two result
//! files from different machine states are recognisable as such.

use dcmesh_telemetry::json::JsonValue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Parses a sysfs cache size such as `4096K` or `260M` into bytes.
fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// `(level, type, bytes)` of every cache cpu0 reports.
fn caches() -> Vec<(u64, String, u64)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")).and_then(|l| l.parse().ok()),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")).and_then(|s| parse_cache_size(&s)),
        ) else {
            continue;
        };
        out.push((level, kind, size));
    }
    out
}

/// Last-level cache size in bytes (32 MiB when sysfs says nothing).
fn llc_bytes() -> u64 {
    caches()
        .iter()
        .filter(|c| c.1 != "Instruction")
        .map(|c| c.2)
        .max()
        .unwrap_or(32 << 20)
}

fn mem_available_bytes() -> Option<u64> {
    let info = std::fs::read_to_string("/proc/meminfo").ok()?;
    let kb = info
        .lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb << 10)
}

/// Machine identity for the result file. `threads` is 1 by construction:
/// the repo's `rayon` shim never spawns.
pub fn identity() -> BTreeMap<String, JsonValue> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cache_list = caches()
        .into_iter()
        .map(|(level, kind, bytes)| {
            JsonValue::String(format!("L{level} {kind} {} KiB", bytes >> 10))
        })
        .collect();
    let mut m = BTreeMap::new();
    m.insert("nproc".to_string(), JsonValue::Number(nproc as f64));
    m.insert("cpu_model".to_string(), JsonValue::String(model));
    m.insert("caches".to_string(), JsonValue::Array(cache_list));
    m.insert("threads".to_string(), JsonValue::Number(1.0));
    m
}

/// Independent FMA chains × lanes: enough to cover FMA latency × 2 ports
/// with 8-lane vectors.
const CHAINS: usize = 10;
const LANES: usize = 8;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_kernel_avx2(iters: u64, acc: &mut [[f32; LANES]; CHAINS], a: f32, b: f32) {
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = v.mul_add(a, b);
            }
        }
    }
}

/// Runs the multiply-add chains with the widest units this CPU has.
fn run_chains(iters: u64, acc: &mut [[f32; LANES]; CHAINS], a: f32, b: f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the function only requires the avx2 and fma CPU
            // features, both detected on this CPU on the line above.
            unsafe { fma_kernel_avx2(iters, acc, a, b) };
            return;
        }
    }
    // Without hardware FMA `mul_add` is a libm call; multiply then add is
    // what the fallback GEMM kernel does too.
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for v in chain.iter_mut() {
                *v = *v * a + b;
            }
        }
    }
}

/// Measured single-thread f32 FMA rate in GFLOP/s: the same AVX2+FMA
/// ceiling `mkl_lite`'s 6×16 microkernel runs under. Best of `reps`
/// short bursts.
pub fn peak_gflops_f32(reps: usize) -> f64 {
    const ITERS: u64 = 2_000_000;
    let (a, b) = (black_box(0.999_999_f32), black_box(1.0e-7_f32));
    let mut best = 0.0f64;
    for _ in 0..reps {
        let mut acc = [[1.0f32; LANES]; CHAINS];
        let start = Instant::now();
        run_chains(ITERS, &mut acc, a, b);
        let secs = start.elapsed().as_secs_f64();
        black_box(&acc);
        best = best.max(2.0 * (ITERS as usize * CHAINS * LANES) as f64 / secs / 1e9);
    }
    best
}

/// The sandbox's sysfs reports its host's shared 260 MiB L3; two arrays
/// of 4× that cost ~10 s of page faults per run there, while the measured
/// rate is flat (13.2–14.6 GB/s) from 64 MiB to 1040 MiB per array.
const STREAM_ARRAY_CAP: u64 = 256 << 20;

/// Measured sustainable memory bandwidth, `a[i] += s·b[i]` over two f32
/// arrays of `array_bytes` each (three transfers per element: read a,
/// read b, write a).
pub struct Stream {
    pub gbps: f64,
    pub array_bytes: u64,
    pub llc_bytes: u64,
}

/// Each array is 4× the last-level cache, so the arrays cannot be cache
/// resident — up to [`STREAM_ARRAY_CAP`] (and 1/8 of available memory).
/// A cap that bites is visible as `array_bytes < 4 · llc_bytes` in the
/// result, which states both sizes.
pub fn stream(passes: usize) -> Stream {
    let llc = llc_bytes();
    let cap = mem_available_bytes().map_or(STREAM_ARRAY_CAP, |m| (m / 8).min(STREAM_ARRAY_CAP));
    let array_bytes = (4 * llc).min(cap).max(8 << 20);
    let n = (array_bytes / 4) as usize;
    let mut a = vec![1.0f32; n];
    let b = vec![2.0f32; n];
    let s = black_box(0.5f32);
    let mut best = 0.0f64;
    for _ in 0..passes {
        let start = Instant::now();
        for (x, y) in a.iter_mut().zip(&b) {
            *x += s * *y;
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&mut a);
        best = best.max(3.0 * array_bytes as f64 / secs / 1e9);
    }
    Stream {
        gbps: best,
        array_bytes,
        llc_bytes: llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("1G"), Some(1 << 30));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn identity_reports_one_thread() {
        let id = identity();
        assert_eq!(id["threads"].as_f64(), Some(1.0));
        assert!(id["nproc"].as_f64().is_some_and(|n| n >= 1.0));
        assert!(id["cpu_model"].as_str().is_some());
    }
}
