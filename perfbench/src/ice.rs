//! `ice_epochs`: a closed loop on the `service` layer over the masked
//! ice-sheet mesh. Two ranks, each one caller that waits for every reply:
//! a fixed number of queries against the snapshot, then edits, then the
//! collective commit. Each epoch coarsens the previous epoch's refined
//! run back and refines a new seeded, clustered Morton run, so commits
//! run `apply_edits` plus the incremental ripple and bypass the phase-1
//! subtree kernels. The ranks run under the simulator's fiber backend on
//! one OS thread: as threads on a shared 2-vCPU host, every collective of
//! a commit stalls whenever either vCPU is descheduled.

use crate::common::{
    counter_metrics, json_strings, local_leaf, point_in, unrepeatable, Outcome, Rng, RunCfg,
};
use crate::stats::{best_replays, secs, Metrics, Samples};
use forestbal_comm::{Comm, CommStats};
use forestbal_core::{BalanceScratch, Condition};
use forestbal_forest::{BalanceVariant, ReversalScheme, TreeId};
use forestbal_mesh::{ice_sheet_forest, IceSheetParams};
use forestbal_octant::Octant;
use forestbal_service::{ForestService, Request, Response, ServiceConfig};
use forestbal_sim::{SimCluster, SimConfig};
use forestbal_trace::{RankTrace, Tracer};
use std::collections::HashSet;
use std::time::{Duration, Instant};

const RANKS: usize = 2;
/// Set-ups before the first round; each round then starts with one more.
const SETUPS: usize = 3;
/// Every round starts from a fresh set-up and replays the same seeded
/// queries and edits, so what a run measures does not depend on how many
/// rounds the time budget allowed. 50 epochs leave 10 samples above the
/// 80th percentile.
const EPOCHS_PER_ROUND: u64 = 50;
/// Rounds per run at least: every epoch's commit is replayed this often,
/// at moments some seconds apart.
const MIN_ROUNDS: usize = 4;
/// Queries per rank before each commit, alternating point location and
/// face-neighbor lookup.
const QUERIES_PER_EPOCH: usize = 32;
/// Refine runs cover this range of the rank's leaves, in per mille.
const RUN_PER_MILLE: (usize, usize) = (1, 10);

/// What one rank measured over one round of epochs.
#[derive(Default)]
struct Round {
    /// Seconds of this round's set-up.
    setup: f64,
    /// Per epoch: this rank's commit seconds and the global leaf count
    /// after it.
    commit: Vec<(f64, u64)>,
    point_locate: Samples,
    neighbor: Samples,
    attempted: u64,
    failed: u64,
    fallbacks: u64,
    skipped: u64,
    dirty_frac_sum: f64,
    splits: u64,
    sent: u64,
    recv: u64,
    rounds: u64,
    comm: CommStats,
    trace: Option<RankTrace>,
}

/// Everything one rank hands back.
struct RankOut {
    setup: Vec<f64>,
    build: Vec<f64>,
    ghost: Vec<f64>,
    plain: Vec<Round>,
    traced: Vec<Round>,
    balanced: bool,
    incremental_matches_full: bool,
    leaves_in: u64,
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let out = SimCluster::run(RANKS, SimConfig::default(), |ctx| rank_body(ctx, cfg));
    merge(cfg, out.results)
}

/// Refine requests for a run of consecutive local leaves. The run's
/// length steps through the `RUN_PER_MILLE` ladder with the epoch, and
/// it lies in the middle of the epoch's stratum of the rank's leaf order,
/// so every seed sees the same mix of edit sizes spread evenly over the
/// mesh. The seed draws its start from the middle quarter of the room the
/// stratum leaves: a commit's cost depends on how graded the mesh is where
/// it edits, and start points drawn from the whole stratum moved the
/// median commit by 30% from one seed to another. A run that would split
/// a child of a family being coarsened in the same epoch is redrawn, as
/// the service would refuse that coarsen; after `REDRAWS` tries in the
/// stratum the whole partition is eligible.
fn refine_run(
    svc: &mut ForestService<3>,
    ctx: &impl Comm,
    rng: &mut Rng,
    coarsening: &HashSet<(TreeId, Octant<3>)>,
) -> Vec<(TreeId, Octant<3>)> {
    const REDRAWS: usize = 64;
    let f = svc.forest();
    let n = f.num_local();
    let (lo, hi) = RUN_PER_MILLE;
    let e = svc.epoch() as usize;
    let len = (n * (lo + e % (hi - lo + 1)) / 1000).max(1);
    let width = n / EPOCHS_PER_ROUND as usize;
    let stratum = (e % EPOCHS_PER_ROUND as usize) * width;
    let run = (0..)
        .map(|attempt| {
            let start = if attempt < REDRAWS && width > len {
                let (room, slack) = (width - len, (width - len) / 4);
                stratum + (room - slack) / 2 + rng.below(slack + 1)
            } else {
                rng.below(n - len + 1)
            };
            (start..start + len)
                .map(|i| local_leaf(f, i))
                .collect::<Vec<_>>()
        })
        .find(|run| {
            run.iter()
                .all(|(t, o)| o.level == 0 || !coarsening.contains(&(*t, o.parent())))
        })
        .expect("some run avoids the families being coarsened");
    for &(tree, leaf) in &run {
        svc.submit(ctx, Request::Refine { tree, leaf });
    }
    run
}

/// One epoch on this rank: queries against the snapshot, then coarsen
/// the previous epoch's run back and refine a new one, then commit.
fn epoch(
    svc: &mut ForestService<3>,
    ctx: &impl Comm,
    rng: &mut Rng,
    run: &mut Vec<(TreeId, Octant<3>)>,
    r: &mut Round,
) {
    let n = svc.forest().num_local();
    for q in 0..QUERIES_PER_EPOCH {
        let (tree, leaf) = local_leaf(svc.forest(), rng.below(n));
        r.attempted += 1;
        if q % 2 == 0 {
            let point = point_in(&leaf, rng);
            let t0 = Instant::now();
            let resp = svc.submit(ctx, Request::PointLocate { tree, point });
            r.point_locate.push(secs(t0));
            if !matches!(resp, Response::Leaf(Some(hit)) if hit == leaf) {
                r.failed += 1;
            }
        } else {
            let (axis, sign) = (rng.below(3), if rng.below(2) == 0 { 1 } else { -1 });
            let octant = leaf;
            let t0 = Instant::now();
            let resp = svc.submit(
                ctx,
                Request::NeighborQuery {
                    tree,
                    octant,
                    axis,
                    sign,
                },
            );
            r.neighbor.push(secs(t0));
            if !matches!(resp, Response::Neighbor(_)) {
                r.failed += 1;
            }
        }
    }
    let coarsening: HashSet<_> = run.iter().copied().collect();
    for (tree, parent) in run.drain(..) {
        svc.submit(ctx, Request::Coarsen { tree, parent });
    }
    *run = refine_run(svc, ctx, rng, &coarsening);
    r.attempted += svc.pending() as u64 + 1;

    let t0 = Instant::now();
    let rep = svc.commit(ctx);
    r.commit.push((secs(t0), rep.leaves_global));
    // A skipped edit was refused by the service: it counts as failed.
    r.failed += rep.skipped;
    r.skipped += rep.skipped;
    r.fallbacks += rep.fallback as u64;
    r.dirty_frac_sum += rep.dirty_global as f64 / rep.leaves_global.max(1) as f64;
    if let Some(inc) = rep.incremental {
        r.rounds += inc.rounds as u64;
        r.splits += inc.splits;
        r.sent += inc.sent_leaves;
        r.recv += inc.recv_leaves;
    }
}

/// One set-up: build the mesh and start the service on it. Returns the
/// service and the seconds of the build and of the whole set-up.
fn set_up(ctx: &impl Comm) -> (ForestService<3>, f64, f64) {
    ctx.barrier();
    let t0 = Instant::now();
    let f = ice_sheet_forest(ctx, IceSheetParams::default());
    let build = secs(t0);
    let svc = ForestService::new(ctx, f, ServiceConfig::new(3));
    (svc, build, secs(t0))
}

/// One round: a set-up, then the epochs.
fn round(ctx: &impl Comm, cfg: &RunCfg, traced: bool) -> (Round, ForestService<3>) {
    let mut r = Round::default();
    let before = ctx.stats();
    let tracer = traced.then(|| Tracer::begin(ctx.rank()));
    let (mut svc, _, setup) = set_up(ctx);
    r.setup = setup;
    let mut rng = Rng::new(cfg.seed, ctx.rank() as u64);
    let mut run = Vec::new();
    for _ in 0..EPOCHS_PER_ROUND {
        epoch(&mut svc, ctx, &mut rng, &mut run, &mut r);
    }
    r.trace = tracer.map(Tracer::finish);
    r.comm = ctx.stats().delta_since(&before);
    (r, svc)
}

/// At least `MIN_ROUNDS` rounds; another only while it should end within
/// `budget`, so the number of rounds (and so of replays per epoch) only
/// changes when the program's speed does.
fn rounds_for(ctx: &impl Comm, cfg: &RunCfg, budget: Duration) -> (Vec<Round>, ForestService<3>) {
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let (r, svc) = round(ctx, cfg, false);
        rounds.push(r);
        // The decision is collective: every rank must run the same rounds.
        let next_ends = t0.elapsed().mul_f64(1.0 + 1.0 / rounds.len() as f64);
        if rounds.len() >= MIN_ROUNDS && ctx.allreduce_or(next_ends > budget) {
            return (rounds, svc);
        }
    }
}

fn rank_body(ctx: &impl Comm, cfg: &RunCfg) -> RankOut {
    let cond = Condition::full(3);
    let (mut setup, mut build, mut ghost) = (Vec::new(), Vec::new(), Vec::new());
    let mut base = None;
    for _ in 0..SETUPS {
        let (svc, b, s) = set_up(ctx);
        build.push(b);
        setup.push(s);
        let mut f = svc.forest().clone();
        if cfg.trace {
            // Spans carry virtual time under the simulator, so the ghost
            // exchange is timed here, on an untimed copy of the snapshot.
            let t1 = Instant::now();
            f.ghost_layer(ctx);
            ghost.push(secs(t1));
        }
        base = Some(f);
    }
    let base = base.expect("at least one set-up");
    let leaves_in = base.num_global(ctx);

    let (plain, traced, svc) = if cfg.trace {
        // Untraced rounds (the overhead base) alternate with traced ones
        // until the budget is spent: the same work under the same host
        // conditions, so every counter should repeat too.
        let t0 = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        loop {
            plain.push(round(ctx, cfg, false).0);
            let (r, svc) = round(ctx, cfg, true);
            traced.push(r);
            if traced.len() >= 2 && ctx.allreduce_or(t0.elapsed() >= cfg.budget()) {
                break (plain, traced, svc);
            }
        }
    } else {
        let (plain, svc) = rounds_for(ctx, cfg, cfg.budget());
        setup.extend(plain.iter().map(|r| r.setup));
        (plain, Vec::new(), svc)
    };

    // Output checks on the last snapshot: still 2:1 balanced, and a full
    // balance of a copy changes nothing (incremental ≡ full).
    let balanced = svc.forest().clone().is_balanced_distributed(ctx, cond);
    let mut full = svc.forest().clone();
    full.balance_with_report_scratch(
        ctx,
        cond,
        BalanceVariant::New,
        ReversalScheme::Notify,
        &mut BalanceScratch::new(),
    );
    let incremental_matches_full = full.checksum(ctx) == svc.forest().checksum(ctx);
    RankOut {
        setup,
        build,
        ghost,
        plain,
        traced,
        balanced,
        incremental_matches_full,
        leaves_in,
    }
}

/// Per-epoch commit latency and the leaves after each commit. An epoch's
/// commit takes as long as the slower rank's; every round replays the
/// same epochs, and an epoch's latency is its fastest replay.
fn commit_samples(ranks: &[RankOut], pick: fn(&RankOut) -> &[Round]) -> (Samples, f64) {
    let rounds: Vec<Samples> = (0..pick(&ranks[0]).len())
        .map(|i| {
            let slower = |e: usize| {
                ranks
                    .iter()
                    .map(|r| pick(r)[i].commit[e].0)
                    .fold(0.0, f64::max)
            };
            (0..EPOCHS_PER_ROUND as usize)
                .map(slower)
                .collect::<Vec<_>>()
                .into()
        })
        .collect();
    let leaves = pick(&ranks[0])[0].commit.iter().map(|c| c.1 as f64).sum();
    (best_replays(&rounds), leaves)
}

fn cluster_max(ranks: &[RankOut], pick: fn(&RankOut) -> &Vec<f64>) -> Samples {
    let mut s = Samples::default();
    for i in 0..pick(&ranks[0]).len() {
        s.push(ranks.iter().map(|r| pick(r)[i]).fold(0.0, f64::max));
    }
    s
}

fn merge(cfg: &RunCfg, ranks: Vec<RankOut>) -> Outcome {
    let mut out = Outcome {
        ranks: RANKS,
        width: 1,
        threads: 1,
        ..Outcome::default()
    };
    out.check(
        "ice-sheet input has 111,960 leaves",
        ranks[0].leaves_in == 111_960,
    );
    out.check("final snapshot is 2:1 balanced", ranks[0].balanced);
    out.check(
        "incremental commits match a full balance",
        ranks[0].incremental_matches_full,
    );
    for r in ranks.iter().flat_map(|r| r.plain.iter().chain(&r.traced)) {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    let rounds = ranks[0].plain.len() + ranks[0].traced.len();
    out.detail.push(("rounds", rounds.to_string()));
    out.detail
        .push(("epochs_per_round", EPOCHS_PER_ROUND.to_string()));

    let mut m = Metrics::default();
    let (plain_commit, leaves) = commit_samples(&ranks, |r| &r.plain);
    if !cfg.trace {
        // Each round replays every rank's queries in the same order.
        let mut q = Samples::default();
        for r in &ranks {
            q.extend(&best_replays(r.plain.iter().map(|r| &r.point_locate)));
            q.extend(&best_replays(r.plain.iter().map(|r| &r.neighbor)));
        }
        m.set("setup_s", cluster_max(&ranks, |r| &r.setup).median(), "s");
        m.quantile("op_best_p50_ms", &plain_commit, 0.5, 1e3, "ms");
        m.quantile("op_best_p80_ms", &plain_commit, 0.8, 1e3, "ms");
        m.set("moct_per_s", leaves / plain_commit.sum() * 1e-6, "Moct/s");
        m.quantile("query_best_p50_us", &q, 0.5, 1e6, "us");
        m.quantile("query_best_p99_us", &q, 0.99, 1e6, "us");
        out.metrics = m;
        return out;
    }

    let (traced_commit, _) = commit_samples(&ranks, |r| &r.traced);
    let first: Vec<&Round> = ranks.iter().map(|r| &r.traced[0]).collect();
    let second: Vec<&Round> = ranks.iter().map(|r| &r.traced[1]).collect();
    let tr: Vec<RankTrace> = first
        .iter()
        .map(|r| r.trace.clone().expect("traced"))
        .collect();
    let tr2: Vec<RankTrace> = second
        .iter()
        .map(|r| r.trace.clone().expect("traced"))
        .collect();
    let get = |k: &str| tr.iter().filter_map(|t| t.counters.get(k)).sum::<u64>() as f64;
    let sum = |f: fn(&Round) -> u64| first.iter().map(|r| f(r)).sum::<u64>() as f64;

    m.set(
        "mesh.build_ms",
        cluster_max(&ranks, |r| &r.build).median() * 1e3,
        "ms",
    );
    m.set("forest.query_bytes", get("balance.query_bytes"), "B");
    m.set("forest.response_bytes", get("balance.response_bytes"), "B");
    m.set(
        "forest.qr_messages",
        get("balance.query_response.messages"),
        "count",
    );
    m.set(
        "forest.ghost_ms",
        cluster_max(&ranks, |r| &r.ghost).median() * 1e3,
        "ms",
    );
    let comm = first
        .iter()
        .fold(CommStats::default(), |a, r| a.merge(&r.comm));
    m.set("comm.messages", comm.messages_sent as f64, "count");
    m.set("comm.p2p_bytes", comm.bytes_sent as f64, "B");
    m.set("comm.collective_bytes", comm.collective_bytes as f64, "B");
    counter_metrics(&mut m, &tr);

    let mut pl = Samples::default();
    let mut nq = Samples::default();
    first.iter().for_each(|r| {
        pl.extend(&r.point_locate);
        nq.extend(&r.neighbor);
    });
    m.quantile("service.point_locate_p50_ns", &pl, 0.5, 1e9, "ns");
    m.quantile("service.neighbor_query_p50_ns", &nq, 0.5, 1e9, "ns");
    m.set(
        "service.dirty_frac",
        first[0].dirty_frac_sum / EPOCHS_PER_ROUND as f64,
        "ratio",
    );
    m.set("service.fallbacks", first[0].fallbacks as f64, "count");
    m.set("service.skipped_edits", sum(|r| r.skipped), "count");
    let leaves_end = first[0].commit.last().map_or(0, |c| c.1);
    m.set("service.leaves_end", leaves_end as f64, "count");
    m.set("incremental.rounds", first[0].rounds as f64, "count");
    m.set("incremental.splits", sum(|r| r.splits), "count");
    m.set("incremental.sent_leaves", sum(|r| r.sent), "count");
    m.set("incremental.recv_leaves", sum(|r| r.recv), "count");

    m.set(
        "trace.overhead_frac",
        traced_commit.median() / plain_commit.median() - 1.0,
        "ratio",
    );
    let moved = unrepeatable(&tr, &tr2);
    m.set("trace.unrepeatable_counters", moved.len() as f64, "count");
    out.detail
        .push(("unrepeatable_counters", json_strings(&moved)));
    out.metrics = m;
    out
}
