//! The forestbal benchmark. One run of one workload:
//!
//! ```text
//! perfbench --workload <fractal_balance|ice_epochs|sim_weakscale>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ones. Stdout ends with one JSON result line; the line before it holds
//! the host stamp and the sample count behind every percentile. The exit
//! code is non-zero when an output check fails. See README.md.

mod common;
mod fractal;
mod host;
mod ice;
mod sim;
mod stats;

use common::{Outcome, RunCfg};
use stats::result_line;
use std::process::ExitCode;

/// End-to-end metrics every workload reports: (name, unit). Each timed
/// operation is replayed within a run; `*_best_*` are quantiles over the
/// distinct operations of each one's fastest replay.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_best_p50_ms", "ms"),
    ("op_best_p80_ms", "ms"),
    ("moct_per_s", "Moct/s"),
    ("query_best_p50_us", "us"),
    ("query_best_p99_us", "us"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer a workload
/// does not run reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("mesh.build_ms", "ms"),
    ("forest.local_balance_ms", "ms"),
    ("forest.query_response_ms", "ms"),
    ("forest.rebalance_ms", "ms"),
    ("forest.reversal_ms", "ms"),
    ("forest.untiled_ms", "ms"),
    ("forest.query_bytes", "B"),
    ("forest.response_bytes", "B"),
    ("forest.qr_messages", "count"),
    ("forest.ghost_ms", "ms"),
    ("core.hash_queries", "count"),
    ("core.sorted_len", "count"),
    ("core.output_len", "count"),
    ("core.binary_searches", "count"),
    ("core.output_per_sorted", "ratio"),
    ("octant.radix_passes", "count"),
    ("octant.table_probes", "count"),
    ("octant.probes_per_output", "ratio"),
    ("par.local_balance_speedup", "ratio"),
    ("par.balance_speedup", "ratio"),
    ("comm.messages", "count"),
    ("comm.p2p_bytes", "B"),
    ("comm.collective_bytes", "B"),
    ("comm.reversal_messages", "count"),
    ("comm.notify_levels", "count"),
    ("sim.makespan_ns", "ns"),
    ("sim.virtual_reversal_ns", "ns"),
    ("sim.virtual_query_response_ns", "ns"),
    ("sim.host_us_per_rank", "us"),
    ("sim.host_ns_per_message", "ns"),
    ("net.link_waits", "count"),
    ("net.link_wait_ns", "ns"),
    ("net.inter_pod_messages", "count"),
    ("service.point_locate_p50_ns", "ns"),
    ("service.neighbor_query_p50_ns", "ns"),
    ("service.dirty_frac", "ratio"),
    ("service.fallbacks", "count"),
    ("service.skipped_edits", "count"),
    ("service.leaves_end", "count"),
    ("incremental.rounds", "count"),
    ("incremental.splits", "count"),
    ("incremental.sent_leaves", "count"),
    ("incremental.recv_leaves", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unrepeatable_counters", "count"),
];

const WORKLOADS: &[&str] = &["fractal_balance", "ice_epochs", "sim_weakscale"];

const USAGE: &str = "usage: perfbench --workload <fractal_balance|ice_epochs|sim_weakscale> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, RunCfg), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let cfg = RunCfg {
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    };
    Ok((workload, cfg))
}

/// Complete the metric set of `cfg`'s mode: the workload must have set
/// every end-to-end metric itself; per-layer metrics of layers it does not
/// run read 0. Anything outside the declared set is a bug.
fn finish_metrics(out: &mut Outcome, cfg: &RunCfg) {
    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    if !cfg.trace {
        out.metrics.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    for name in out.metrics.names().collect::<Vec<_>>() {
        assert!(
            declared.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
    }
    let mut ordered = stats::Metrics::default();
    for &(name, unit) in declared {
        match out.metrics.get(name) {
            Some(v) => ordered.set(name, v, unit),
            None if cfg.trace => ordered.set(name, 0.0, unit),
            None => panic!("end-to-end metric {name} not measured"),
        }
    }
    ordered.copy_counts(&out.metrics);
    out.metrics = ordered;
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Workloads install their own pools; anything else stays serial rather
    // than defaulting to one worker per core and oversubscribing the host.
    forestbal_par::set_global_threads(1);
    let mut out = match workload.as_str() {
        "fractal_balance" => fractal::run(&cfg),
        "ice_epochs" => ice::run(&cfg),
        "sim_weakscale" => sim::run(&cfg),
        _ => unreachable!("validated in parse_args"),
    };
    finish_metrics(&mut out, &cfg);
    let correct = out.checks.iter().all(|c| c.1);
    println!("{}", host::detail_line(&workload, &cfg, &out));
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, cfg) = parse_args(&args(
            "--workload ice_epochs --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, "ice_epochs");
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload ice_epochs --seed 1 --seconds 0 --trace 0",
            "--workload ice_epochs --seed x --seconds 1 --trace 0",
            "--workload ice_epochs --seed 1 --seconds 1 --trace 2",
            "--workload ice_epochs --seed 1 --seconds 1",
            "--workload ice_epochs --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted: {bad}");
        }
    }

    /// Every name in a `"name": "<x>"` member of the section of
    /// BENCHMARK.json that starts at `key`.
    fn declared_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let end = section.find(']').expect("section closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = |t: &[(&str, &str)]| t.iter().map(|e| e.0.to_string()).collect::<Vec<_>>();
        assert_eq!(declared_names(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(declared_names(&json, "per_layer"), names(PER_LAYER));
        assert_eq!(declared_names(&json, "workloads"), WORKLOADS);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let member = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&member),
                "{name} lacks unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn traced_runs_fill_unmeasured_layers_with_zero() {
        let cfg = RunCfg {
            seed: 0,
            seconds: 1.0,
            trace: true,
        };
        let mut out = Outcome::default();
        out.metrics.set("mesh.build_ms", 3.5, "ms");
        finish_metrics(&mut out, &cfg);
        let names: Vec<_> = out.metrics.names().collect();
        assert_eq!(names.len(), PER_LAYER.len());
        assert_eq!(out.metrics.get("mesh.build_ms"), Some(3.5));
        assert_eq!(out.metrics.get("net.link_waits"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn untraced_runs_require_every_end_to_end_metric() {
        let cfg = RunCfg {
            seed: 0,
            seconds: 1.0,
            trace: false,
        };
        finish_metrics(&mut Outcome::default(), &cfg);
    }
}
