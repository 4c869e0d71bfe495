//! Pieces every workload shares: the run settings, the outcome record,
//! a seeded generator, leaf sampling and trace-counter folding.

use crate::stats::{secs, Metrics, Samples};
use forestbal_forest::{Forest, TreeId};
use forestbal_octant::Octant;
use forestbal_trace::RankTrace;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

impl RunCfg {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Named output checks; the run is correct only if all pass.
    pub checks: Vec<(&'static str, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Ranks (threaded or simulated), intra-rank pool width, and the OS
    /// threads that compute at once.
    pub ranks: usize,
    pub width: usize,
    pub threads: usize,
    /// Extra `"key": value` JSON members for the detail line.
    pub detail: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool) {
        if !ok {
            eprintln!("output check failed: {name}");
        }
        self.checks.push((name, ok));
    }
}

/// SplitMix64: a tiny seeded generator, so inputs depend on `--seed` only.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next() % n as u64) as usize
    }
}

/// The `i`-th local leaf in (tree, Morton) order.
pub fn local_leaf<const D: usize>(f: &Forest<D>, mut i: usize) -> (TreeId, Octant<D>) {
    for (t, v) in f.trees() {
        if i < v.len() {
            return (t, v.get(i));
        }
        i -= v.len();
    }
    panic!("leaf index past the local partition");
}

/// A uniformly drawn integer point inside `o`.
pub fn point_in<const D: usize>(o: &Octant<D>, rng: &mut Rng) -> [forestbal_octant::Coord; D] {
    let mut p = o.coords;
    for c in p.iter_mut() {
        *c += rng.below(o.len() as usize) as forestbal_octant::Coord;
    }
    p
}

/// Serve `count` point locations on local leaves of `f`, each timed on
/// its own into `samples`: draw a leaf and a point inside it, then locate
/// the point. Returns the misses: points not located in the leaf they
/// were drawn from.
pub fn locates<const D: usize>(
    f: &Forest<D>,
    rng: &mut Rng,
    count: usize,
    samples: &mut Samples,
) -> u64 {
    let n = f.num_local();
    if n == 0 {
        return 0;
    }
    let mut misses = 0;
    for _ in 0..count {
        let (t, leaf) = local_leaf(f, rng.below(n));
        let p = point_in(&leaf, rng);
        let t0 = Instant::now();
        let hit = f.find_leaf_at_point(t, std::hint::black_box(p));
        samples.push(secs(t0));
        misses += u64::from(hit != Some(leaf));
    }
    misses
}

/// The per-layer metrics read straight off the program's counters:
/// `core` and `octant` kernel work (cluster sums) and reversal traffic.
pub fn counter_metrics(m: &mut Metrics, traces: &[RankTrace]) {
    let mut c: BTreeMap<&str, u64> = BTreeMap::new();
    for t in traces {
        for (&k, &v) in &t.counters {
            *c.entry(k).or_insert(0) += v;
        }
    }
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let (sorted, out_len) = (
        get("balance.local.sorted_len"),
        get("balance.local.output_len"),
    );
    m.set(
        "core.hash_queries",
        get("balance.local.hash_queries"),
        "count",
    );
    m.set("core.sorted_len", sorted, "count");
    m.set("core.output_len", out_len, "count");
    m.set(
        "core.binary_searches",
        get("balance.local.binary_searches"),
        "count",
    );
    m.set("core.output_per_sorted", out_len / sorted.max(1.0), "ratio");
    let radix = get("balance.local.radix_passes") + get("balance.rebalance.radix_passes");
    let probes = get("balance.local.table_probes") + get("balance.rebalance.table_probes");
    m.set("octant.radix_passes", radix, "count");
    m.set("octant.table_probes", probes, "count");
    m.set(
        "octant.probes_per_output",
        probes / out_len.max(1.0),
        "ratio",
    );
    m.set(
        "comm.reversal_messages",
        get("balance.reversal.messages"),
        "count",
    );
    let levels = traces
        .iter()
        .filter_map(|t| t.counters.get("reversal.notify.levels").copied())
        .max()
        .unwrap_or(0);
    m.set("comm.notify_levels", levels as f64, "count");
}

/// Counter names whose value differs between two recordings of the same
/// work (per rank), so the per-layer line can flag schedule-dependent
/// counters without gating on them.
pub fn unrepeatable(a: &[RankTrace], b: &[RankTrace]) -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for (x, y) in a.iter().zip(b) {
        for (&k, &v) in x.counters.iter() {
            if y.counters.get(k) != Some(&v) && !out.contains(&k) {
                out.push(k);
            }
        }
        for &k in y.counters.keys() {
            if !x.counters.contains_key(k) && !out.contains(&k) {
                out.push(k);
            }
        }
    }
    out.sort_unstable();
    out
}

/// `"a", "b"` as a JSON array.
pub fn json_strings(v: &[&str]) -> String {
    let items: Vec<String> = v.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let a: Vec<u64> = (0..4).scan(Rng::new(7, 0), |r, _| Some(r.next())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(7, 0), |r, _| Some(r.next())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(7, 1), |r, _| Some(r.next())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn unrepeatable_lists_differing_and_missing_counters() {
        let mut x = RankTrace::default();
        let mut y = RankTrace::default();
        x.counters.insert("same", 1);
        y.counters.insert("same", 1);
        x.counters.insert("moved", 2);
        y.counters.insert("moved", 3);
        y.counters.insert("new", 1);
        assert_eq!(unrepeatable(&[x], &[y]), ["moved", "new"]);
    }
}
