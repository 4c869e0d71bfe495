//! `sim_weakscale`: one simulated one-pass balance of the fractal forest
//! at P = 8192 on the contended fat-tree network, with Notify reversal.
//! Its partitions hold ~66 octants each and are surface-dominated, so
//! nearly every octant is queried: the only workload where `comm`
//! reversal, `sim` scheduling and `sim::net` contention carry real load.
//! The fiber backend runs every rank on one OS thread.

use crate::common::{counter_metrics, json_strings, locates, unrepeatable, Outcome, Rng, RunCfg};
use crate::stats::{best_replays, secs, Metrics, Samples};
use forestbal_bench::experiments::weakscale_level;
use forestbal_comm::Comm;
use forestbal_core::Condition;
use forestbal_forest::{BalanceReport, BalanceVariant, Forest, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_sim::{FatTreeParams, NetworkSpec, SimCluster, SimConfig, SimRunOutput};
use forestbal_trace::{RankTrace, Tracer};
use std::time::Instant;

const RANKS: usize = 8192;
const SPREAD: u8 = 2;
const OCTANTS_OUT: u64 = 540_672;
/// Set-ups before the first simulated run, and again before each
/// untraced one, so that the set-up samples span the whole run.
const SETUPS: usize = 3;

/// Point locations served on each rank's balanced partition.
const QUERIES_PER_RANK: usize = 4;
/// Passes over all ranks' queries after each simulated run. A pass takes
/// milliseconds, and only two runs fit in a benchmark run, so each run
/// replays its queries several times.
const QUERY_PASSES: usize = 8;

/// What one simulated rank hands back.
struct RankResult {
    forest: Forest<3>,
    octants_out: u64,
    report: BalanceReport,
    trace: Option<RankTrace>,
}

struct SimRun {
    seconds: f64,
    out: SimRunOutput<RankResult>,
}

fn config() -> SimConfig {
    SimConfig::builder()
        .network(NetworkSpec::FatTree(FatTreeParams::default()))
        .build()
}

fn simulate(traced: bool) -> SimRun {
    let level = weakscale_level(RANKS);
    let t0 = Instant::now();
    let out = SimCluster::run(RANKS, config(), move |ctx| {
        let tracer = traced.then(|| Tracer::begin(ctx.rank()));
        let mut f = fractal_forest(ctx, level, SPREAD);
        ctx.barrier();
        let report = f.balance_with_report(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
        );
        let trace = tracer.map(Tracer::finish);
        RankResult {
            octants_out: f.num_global(ctx),
            forest: f,
            report,
            trace,
        }
    });
    SimRun {
        seconds: secs(t0),
        out,
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let level = weakscale_level(RANKS);
    let mut out = Outcome {
        ranks: RANKS,
        width: 1,
        threads: 1,
        ..Outcome::default()
    };
    // Set-up: build-only simulated runs; the median is reported.
    let mut setup = Samples::default();
    let set_up = |setup: &mut Samples| {
        let mut octants_in = 0;
        for _ in 0..SETUPS {
            let t0 = Instant::now();
            let r = SimCluster::run(RANKS, config(), move |ctx| {
                fractal_forest(ctx, level, SPREAD).num_global(ctx)
            });
            setup.push(secs(t0));
            octants_in = r.results[0];
        }
        octants_in
    };
    let octants_in = set_up(&mut setup);
    out.detail.push(("level", level.to_string()));
    out.detail.push(("octants_in", octants_in.to_string()));

    // Point locations run after the simulation, on the main thread: timed
    // inside a fiber they read differently from one process to the next.
    // Every run ends with the same partitions and draws the same queries;
    // each pass is one replay of them.
    let record = |out: &mut Outcome, run: &SimRun| {
        out.attempted += 1;
        let ok = run.out.results.iter().all(|r| r.octants_out == OCTANTS_OUT);
        if !ok {
            out.failed += 1;
            out.check("simulated balance ends with 540,672 octants", false);
        }
        (0..QUERY_PASSES)
            .map(|_| {
                let mut queries = Samples::default();
                for (rank, r) in run.out.results.iter().enumerate() {
                    let mut rng = Rng::new(cfg.seed, rank as u64);
                    out.failed += locates(&r.forest, &mut rng, QUERIES_PER_RANK, &mut queries);
                    out.attempted += QUERIES_PER_RANK as u64;
                }
                queries
            })
            .collect::<Vec<_>>()
    };

    let mut m = Metrics::default();
    if !cfg.trace {
        // Every run repeats the same balance: one distinct operation,
        // replayed by each run.
        let (mut runs, mut queries) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        // At least two runs, so that each run reports the same statistic;
        // another only if it should end within the budget.
        loop {
            let run = simulate(false);
            queries.extend(record(&mut out, &run));
            runs.push(Samples::from(vec![run.seconds]));
            let op = best_replays(&runs);
            if runs.len() >= 2 && t0.elapsed().as_secs_f64() + op.median() > cfg.seconds {
                break;
            }
            set_up(&mut setup);
        }
        let op = best_replays(&runs);
        let queries = best_replays(&queries);
        out.detail.push(("replays", runs.len().to_string()));
        m.set("setup_s", setup.median(), "s");
        m.quantile("op_best_p50_ms", &op, 0.5, 1e3, "ms");
        m.quantile("op_best_p80_ms", &op, 0.8, 1e3, "ms");
        m.set("moct_per_s", OCTANTS_OUT as f64 / op.sum() * 1e-6, "Moct/s");
        m.quantile("query_best_p50_us", &queries, 0.5, 1e6, "us");
        m.quantile("query_best_p99_us", &queries, 0.99, 1e6, "us");
    } else {
        // Two traced runs (the repeat check) around one untraced run (the
        // overhead base); per-layer figures come from the first traced run.
        let traced = simulate(true);
        let plain = simulate(false);
        let again = simulate(true);
        for run in [&traced, &plain, &again] {
            record(&mut out, run);
        }
        let tr: Vec<RankTrace> = traced
            .out
            .results
            .iter()
            .map(|r| r.trace.clone().expect("traced"))
            .collect();
        let tr2: Vec<RankTrace> = again
            .out
            .results
            .iter()
            .map(|r| r.trace.clone().expect("traced"))
            .collect();
        per_layer(&mut m, &setup, &traced, &tr);
        let overhead = (traced.seconds + again.seconds) / (2.0 * plain.seconds) - 1.0;
        m.set("trace.overhead_frac", overhead, "ratio");
        let moved = unrepeatable(&tr, &tr2);
        m.set("trace.unrepeatable_counters", moved.len() as f64, "count");
        out.detail
            .push(("unrepeatable_counters", json_strings(&moved)));
        out.detail.push((
            "makespan_repeats",
            (traced.out.makespan_ns() == again.out.makespan_ns()).to_string(),
        ));
    }
    out.metrics = m;
    out
}

fn per_layer(m: &mut Metrics, setup: &Samples, traced: &SimRun, tr: &[RankTrace]) {
    let report = traced
        .out
        .results
        .iter()
        .map(|r| r.report)
        .fold(BalanceReport::default(), |a, b| a.combine(&b));
    let stats = traced.out.total_stats();
    let net = traced.out.net;
    m.set("mesh.build_ms", setup.median() * 1e3, "ms");
    m.set("forest.query_bytes", report.query_bytes as f64, "B");
    m.set("forest.response_bytes", report.response_bytes as f64, "B");
    m.set("forest.qr_messages", report.messages as f64, "count");
    m.set("comm.messages", stats.messages_sent as f64, "count");
    m.set("comm.p2p_bytes", stats.bytes_sent as f64, "B");
    m.set("comm.collective_bytes", stats.collective_bytes as f64, "B");
    counter_metrics(m, tr);

    m.set("sim.makespan_ns", traced.out.makespan_ns() as f64, "ns");
    m.set(
        "sim.virtual_reversal_ns",
        report.timings.reversal.as_nanos() as f64,
        "ns",
    );
    m.set(
        "sim.virtual_query_response_ns",
        report.timings.query_response.as_nanos() as f64,
        "ns",
    );
    m.set(
        "sim.host_us_per_rank",
        traced.seconds * 1e6 / RANKS as f64,
        "us",
    );
    m.set(
        "sim.host_ns_per_message",
        traced.seconds * 1e9 / (stats.messages_sent.max(1)) as f64,
        "ns",
    );
    m.set("net.link_waits", net.link_waits as f64, "count");
    m.set("net.link_wait_ns", net.link_wait_ns as f64, "ns");
    m.set(
        "net.inter_pod_messages",
        net.inter_pod_messages as f64,
        "count",
    );
}
