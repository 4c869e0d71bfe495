//! `fractal_balance`: repeated one-pass balance of the paper's fractal
//! forest (Figs. 14/15) on one rank with a width-2 pool. Volume-dominated:
//! the `octant`/`core` kernels, `forest` phases 1-4 and `par` do nearly
//! all the work.

use crate::common::{counter_metrics, json_strings, locates, unrepeatable, Outcome, Rng, RunCfg};
use crate::stats::{best_replays, secs, Metrics, Samples};
use forestbal_comm::{Cluster, Comm, RankCtx};
use forestbal_core::{BalanceScratch, Condition};
use forestbal_forest::{BalanceReport, BalanceVariant, Forest, ReversalScheme};
use forestbal_mesh::fractal_forest;
use forestbal_par::Pool;
use forestbal_trace::{RankTrace, Tracer};
use std::sync::Arc;
use std::time::Instant;

const LEVEL: u8 = 2;
const SPREAD: u8 = 4;
const OCTANTS_IN: u64 = 114_624;
const OCTANTS_OUT: u64 = 239_672;
/// Checksum of the balanced mesh; the same value as the `kernel_par` row
/// of `BENCH_kernel.json`.
const CHECKSUM: u64 = 14_905_401_153_707_845_160;
pub const WIDTH: usize = 2;
/// Set-ups before the measured phase; the untraced run times another
/// after every `SETUP_EVERY` calls, so that the set-up samples span the
/// whole run like the calls do.
const SETUPS: usize = 3;
const SETUP_EVERY: usize = 5;
/// Point locations served on each balanced mesh: the same seeded set
/// every call, so each call replays them.
const QUERIES_PER_CALL: usize = 1024;

/// One timed balance call and what it produced.
struct Call {
    seconds: f64,
    report: BalanceReport,
    comm: forestbal_comm::CommStats,
    trace: Option<RankTrace>,
    /// Each point location's time, in the seeded order.
    queries: Samples,
}

/// The set-up and its timings. The balance calls share its scratch.
#[derive(Default)]
struct SetUp {
    scratch: BalanceScratch<3>,
    /// Mesh build plus warm-up, per set-up.
    total: Samples,
    build: Samples,
}

impl SetUp {
    /// One timed set-up: build the mesh, then balance a clone of it once
    /// (the warm-up). Returns the unbalanced mesh.
    fn run(&mut self, ctx: &RankCtx) -> Forest<3> {
        let t0 = Instant::now();
        let f = fractal_forest(ctx, LEVEL, SPREAD);
        self.build.push(secs(t0));
        f.clone().balance_with_report_scratch(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
            &mut self.scratch,
        );
        self.total.push(secs(t0));
        f
    }
}

struct Bench<'a> {
    ctx: &'a RankCtx,
    input: Forest<3>,
    set: SetUp,
    seed: u64,
    out: Outcome,
}

impl Bench<'_> {
    /// Balance a fresh clone of the input (the clone is untimed), check
    /// the output, then serve point locations on it.
    fn call(&mut self, traced: bool) -> Call {
        let ctx = self.ctx;
        let mut f = self.input.clone();
        let before = ctx.stats();
        let tracer = traced.then(|| Tracer::begin(ctx.rank()));
        let t0 = Instant::now();
        let report = f.balance_with_report_scratch(
            ctx,
            Condition::full(3),
            BalanceVariant::New,
            ReversalScheme::Notify,
            &mut self.set.scratch,
        );
        let seconds = secs(t0);
        let trace = tracer.map(Tracer::finish);
        let comm = ctx.stats().delta_since(&before);

        let octants_out = f.num_global(ctx);
        let ok = octants_out == OCTANTS_OUT && f.checksum(ctx) == CHECKSUM;
        self.out.attempted += 1;
        if !ok {
            self.out.failed += 1;
            self.out
                .check("balanced mesh matches the pinned checksum", false);
        }
        Call {
            seconds,
            report,
            comm,
            trace,
            queries: self.serve_queries(&f),
        }
    }

    /// Point locations against the balanced mesh. Every balanced mesh is
    /// the same, so the same seed draws the same queries.
    fn serve_queries(&mut self, f: &Forest<3>) -> Samples {
        let mut rng = Rng::new(self.seed, 0xF4AC);
        let mut times = Samples::default();
        let misses = locates(f, &mut rng, QUERIES_PER_CALL, &mut times);
        self.out.attempted += QUERIES_PER_CALL as u64;
        self.out.failed += misses;
        times
    }

    /// Calls until `budget` is spent (at least one), with a set-up after
    /// every `SETUP_EVERY` calls.
    fn calls_for(&mut self, budget: std::time::Duration) -> Vec<Call> {
        let t0 = Instant::now();
        let mut calls = Vec::new();
        while calls.is_empty() || t0.elapsed() < budget {
            calls.push(self.call(false));
            if calls.len() % SETUP_EVERY == 0 {
                self.set.run(self.ctx);
            }
        }
        calls
    }
}

fn samples(calls: &[Call], f: impl Fn(&Call) -> f64) -> Samples {
    let mut s = Samples::default();
    calls.iter().for_each(|c| s.push(f(c)));
    s
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let wide = Arc::new(Pool::new(WIDTH));
    let out = Cluster::run(1, |ctx| wide.install(|| body(ctx, cfg)));
    out.results.into_iter().next().expect("one rank")
}

fn body(ctx: &RankCtx, cfg: &RunCfg) -> Outcome {
    // Set-up: mesh build plus one warm-up balance, repeated; the median
    // is reported.
    let mut set = SetUp::default();
    for _ in 1..SETUPS {
        set.run(ctx);
    }
    let mut b = Bench {
        ctx,
        seed: cfg.seed,
        out: Outcome {
            ranks: 1,
            width: WIDTH,
            threads: WIDTH,
            ..Outcome::default()
        },
        input: set.run(ctx),
        set,
    };
    let in_ok = b.input.num_global(ctx) == OCTANTS_IN;
    b.out.check("fractal input has 114,624 octants", in_ok);

    let mut m = Metrics::default();
    if !cfg.trace {
        // Every call balances the same input: one distinct operation,
        // replayed by each call.
        let calls = b.calls_for(cfg.budget());
        let replays: Vec<Samples> = calls.iter().map(|c| vec![c.seconds].into()).collect();
        let op = best_replays(&replays);
        let queries = best_replays(calls.iter().map(|c| &c.queries));
        b.out.detail.push(("replays", calls.len().to_string()));
        m.set("setup_s", b.set.total.median(), "s");
        m.quantile("op_best_p50_ms", &op, 0.5, 1e3, "ms");
        m.quantile("op_best_p80_ms", &op, 0.8, 1e3, "ms");
        m.set("moct_per_s", OCTANTS_OUT as f64 / op.sum() * 1e-6, "Moct/s");
        m.quantile("query_best_p50_us", &queries, 0.5, 1e6, "us");
        m.quantile("query_best_p99_us", &queries, 0.99, 1e6, "us");
    } else {
        // Width 1 (the `par` base), untraced width 2 (the overhead base)
        // and traced width 2, interleaved so that all three see the same
        // host conditions. The last two swap places every triple, so
        // neither always runs right after the width-1 call.
        let narrow = Arc::new(Pool::new(1));
        let (mut plain, mut serial, mut traced) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        while traced.len() < 2 || t0.elapsed() < cfg.budget() {
            serial.push(narrow.install(|| b.call(false)));
            if traced.len() % 2 == 0 {
                plain.push(b.call(false));
                traced.push(b.call(true));
            } else {
                traced.push(b.call(true));
                plain.push(b.call(false));
            }
        }
        per_layer(&mut m, &b.set.build, &plain, &serial, &traced);
        let t: Vec<&RankTrace> = traced.iter().filter_map(|c| c.trace.as_ref()).collect();
        let moved = unrepeatable(std::slice::from_ref(t[0]), std::slice::from_ref(t[1]));
        m.set("trace.unrepeatable_counters", moved.len() as f64, "count");
        b.out
            .detail
            .push(("unrepeatable_counters", json_strings(&moved)));
    }
    b.out.metrics = m;
    b.out
}

fn per_layer(m: &mut Metrics, build: &Samples, plain: &[Call], serial: &[Call], traced: &[Call]) {
    let ms = |calls: &[Call], f: fn(&Call) -> std::time::Duration| {
        samples(calls, |c| f(c).as_secs_f64()).median() * 1e3
    };
    m.set("mesh.build_ms", build.median() * 1e3, "ms");
    m.set(
        "forest.local_balance_ms",
        ms(traced, |c| c.report.timings.local_balance),
        "ms",
    );
    m.set(
        "forest.query_response_ms",
        ms(traced, |c| c.report.timings.query_response),
        "ms",
    );
    m.set(
        "forest.rebalance_ms",
        ms(traced, |c| c.report.timings.rebalance),
        "ms",
    );
    m.set(
        "forest.reversal_ms",
        ms(traced, |c| c.report.timings.reversal),
        "ms",
    );
    let untiled = samples(traced, |c| {
        let t = &c.report.timings;
        (t.total - t.local_balance - t.query_response - t.rebalance - t.reversal).as_secs_f64()
    });
    m.set("forest.untiled_ms", untiled.median() * 1e3, "ms");
    let first = &traced[0];
    m.set("forest.query_bytes", first.report.query_bytes as f64, "B");
    m.set(
        "forest.response_bytes",
        first.report.response_bytes as f64,
        "B",
    );
    m.set("forest.qr_messages", first.report.messages as f64, "count");

    let local = |calls: &[Call]| ms(calls, |c| c.report.timings.local_balance);
    let total = |calls: &[Call]| ms(calls, |c| c.report.timings.total);
    m.set(
        "par.local_balance_speedup",
        local(serial) / local(plain),
        "ratio",
    );
    m.set("par.balance_speedup", total(serial) / total(plain), "ratio");

    m.set("comm.messages", first.comm.messages_sent as f64, "count");
    m.set("comm.p2p_bytes", first.comm.bytes_sent as f64, "B");
    m.set(
        "comm.collective_bytes",
        first.comm.collective_bytes as f64,
        "B",
    );
    counter_metrics(
        m,
        std::slice::from_ref(first.trace.as_ref().expect("traced call")),
    );

    let p50 = |calls: &[Call]| samples(calls, |c| c.seconds).median();
    m.set(
        "trace.overhead_frac",
        p50(traced) / p50(plain) - 1.0,
        "ratio",
    );
}
