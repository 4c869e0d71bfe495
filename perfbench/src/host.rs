//! The host-shape stamp printed with every result, and peak memory.

use crate::common::{Outcome, RunCfg};
use std::path::Path;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Does the build record traces? Probed by recording one counter: with
/// the `record` feature off the tracer hands back an empty trace.
fn trace_recording() -> bool {
    let t = forestbal_trace::Tracer::begin(0);
    forestbal_trace::counter_add("perfbench.probe", 1);
    !t.finish().counters.is_empty()
}

/// The commit when run from a git work tree, else a FNV-1a fingerprint of
/// the program's sources (the benchmark may run from a plain export).
fn source_id() -> String {
    if Path::new(".git").exists() {
        let head = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output();
        if let Ok(o) = head {
            if o.status.success() {
                return String::from_utf8_lossy(&o.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// The line before the result: host stamp, sample counts and the
/// workload's own details, as one JSON object.
pub fn detail_line(workload: &str, cfg: &RunCfg, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (bmi2, avx2) = forestbal_octant::simd_active();
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok)| format!("\"{n}\": {ok}"))
        .collect();
    let mut members = vec![
        format!("\"workload\": \"{workload}\""),
        format!("\"seed\": {}", cfg.seed),
        format!("\"seconds\": {}", cfg.seconds),
        format!("\"trace\": {}", cfg.trace),
        format!(
            "\"host\": {{\"nproc\": {nproc}, \"ranks\": {}, \"pool_width\": {}, \
             \"compute_threads\": {}, \"simd_bmi2\": {bmi2}, \"simd_avx2\": {avx2}, \"trace_recording\": {}, \
             \"source\": \"{}\"}}",
            out.ranks,
            out.width,
            out.threads,
            trace_recording(),
            source_id()
        ),
        format!("\"samples\": {}", out.metrics.counts_json()),
        format!("\"checks\": {{{}}}", checks.join(", ")),
    ];
    members.extend(out.detail.iter().map(|(k, v)| format!("\"{k}\": {v}")));
    format!("{{{}}}", members.join(", "))
}
