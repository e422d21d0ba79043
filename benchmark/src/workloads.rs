//! The four workloads: their frozen manifests, the seeded inputs made from
//! them, and the output checks their results must pass.
//!
//! Why these four: `fig6` is what a user runs to reproduce the headline
//! figure and spends its host time on the translation read path (TLB,
//! memo, page walks). `fault` touches every page exactly once, so the TLB
//! and the memo layer are bypassed and fault handling and allocation do
//! the work. `fleet` is multi-tenant dispatch plus observability
//! artifacts, where emitting and re-parsing JSON dominates. `serve` is the
//! job server under a closed loop of two clients, mixing cold jobs with
//! result-cache hits.

use vmsim_config::{ExperimentManifest, ExperimentSpec};
use vmsim_obs::json::{self, Json};

use crate::Tally;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fig6,
    Fault,
    Fleet,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig6,
        Workload::Fault,
        Workload::Fleet,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6 => "fig6",
            Workload::Fault => "fault",
            Workload::Fleet => "fleet",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The frozen manifest the seeded inputs are made from.
    fn template(self) -> &'static str {
        match self {
            Workload::Fig6 => include_str!("../workloads/fig6.json"),
            Workload::Fault => include_str!("../workloads/fault.json"),
            Workload::Fleet => include_str!("../workloads/fleet.json"),
            Workload::Serve => include_str!("../workloads/serve.json"),
        }
    }
}

/// SplitMix64: a seed-to-stream mixer, so neighbouring seeds give
/// unrelated choices.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Largest `--seed` accepted: serve job seeds are `seed * 10^6 + k`, and
/// every seed must stay exact in a JSON number.
pub const MAX_SEED: u64 = u32::MAX as u64;

/// The frozen manifest with `seeds` set to `[sim_seed]`.
fn with_seed(w: Workload, sim_seed: u64) -> ExperimentManifest {
    let mut m = ExperimentManifest::from_json(w.template()).expect("frozen manifests parse");
    m.seeds = vec![sim_seed];
    m
}

/// The job one batch workload repeats, made from `seed`. The matrix
/// workloads run with `seeds: [seed]`; the allocation microbenchmark has
/// no simulation seed, so the seed picks its array length within 0.4%.
pub fn job(w: Workload, seed: u64) -> ExperimentManifest {
    let mut m = with_seed(w, seed);
    if let ExperimentSpec::AllocLatency { pages } = &mut m.experiment {
        *pages += mix(seed) % 4096;
    }
    m
}

/// The same job with its measured part removed: machine build and the
/// warm-up phases only (`measure_ops` 1, or a one-page array).
pub fn setup_job(job: &ExperimentManifest) -> ExperimentManifest {
    let mut m = job.clone();
    m.measure_ops = 1;
    if let ExperimentSpec::AllocLatency { pages } = &mut m.experiment {
        *pages = 1;
    }
    m
}

/// Distinct manifests completed before a serve session starts; every
/// cache hit resubmits one of them.
pub const SERVE_POOL: u64 = 4;

/// The serve job stream made from `seed`. Submission `i` is a new
/// manifest (executed cold) when `i % 3 == 0`, else a resubmission of a
/// pool manifest chosen by the seeded stream (answered from the cache).
pub struct ServeStream {
    seed: u64,
}

impl ServeStream {
    pub fn new(seed: u64) -> ServeStream {
        ServeStream { seed }
    }

    /// Pool manifest `k` (`k < SERVE_POOL`).
    pub fn pool(&self, k: u64) -> ExperimentManifest {
        with_seed(Workload::Serve, self.seed * 1_000_000 + k)
    }

    /// Submission `i`: the manifest and whether it should be a cache hit.
    pub fn submission(&self, i: u64) -> (ExperimentManifest, Option<u64>) {
        if i.is_multiple_of(3) {
            let cold = SERVE_POOL + i / 3;
            (
                with_seed(Workload::Serve, self.seed * 1_000_000 + cold),
                None,
            )
        } else {
            let k = mix(self.seed ^ mix(i)) % SERVE_POOL;
            (self.pool(k), Some(k))
        }
    }
}

/// The simulated outcome of one results JSON, reduced to the numbers the
/// benchmark reports. Deterministic for a given seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Model {
    /// PTEMagnet vs default: 100 × (1 − geomean of cycle ratios); positive
    /// means PTEMagnet is faster.
    pub gain_pct: f64,
    pub host_frag_default: f64,
    pub host_frag_ptemagnet: f64,
    pub tlb_lookups: u64,
    pub tlb_misses: u64,
    pub data_accesses: u64,
    pub data_misses: u64,
}

/// The alloc-latency payload of a results JSON: (pages, default cycles,
/// PTEMagnet cycles).
pub fn alloc_latency(doc: &Json) -> Option<(u64, u64, u64)> {
    let a = doc.get("alloc_latency")?;
    let field = |k: &str| a.get(k).and_then(Json::as_u64);
    Some((
        field("pages")?,
        field("default_cycles")?,
        field("ptemagnet_cycles")?,
    ))
}

/// Checks one results JSON of workload `w` and reduces it to a [`Model`].
///
/// Every workload: the document parses and no cell failed. Matrix kinds:
/// cells pair up as (default, ptemagnet) per workload row. `fig6`: every
/// benchmark's PTEMagnet improvement is at least −1% (the repository's
/// existing bound). `fig6` and `fleet`: host-PT fragmentation is exactly
/// 1.0 under PTEMagnet and above 1 under default. `fault`: PTEMagnet
/// takes fewer cycles than default.
pub fn check_results(w: Workload, text: &str, tally: &mut Tally) -> Model {
    let mut model = Model::default();
    let Ok(doc) = json::parse(text) else {
        tally.check(false, "results JSON parses");
        return model;
    };
    if w == Workload::Fault {
        let Some((_, default, ptemagnet)) = alloc_latency(&doc) else {
            tally.check(false, "results carry an alloc_latency payload");
            return model;
        };
        tally.check(ptemagnet < default, "fault: PTEMagnet takes fewer cycles");
        model.gain_pct = 100.0 * (1.0 - ptemagnet as f64 / default as f64);
        return model;
    }
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]);
    let num = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let policy = |r: &Json| {
        r.get("policy")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let failed = runs.iter().any(|r| r.get("status").is_some());
    tally.check(
        !runs.is_empty() && !failed && runs.len() % 2 == 0,
        "no cell failed and cells pair up",
    );
    let pairs: Vec<(&Json, &Json)> = runs
        .chunks_exact(2)
        .filter(|p| policy(&p[0]) == "default" && policy(&p[1]) == "ptemagnet")
        .map(|p| (&p[0], &p[1]))
        .collect();
    tally.check(
        !pairs.is_empty() && pairs.len() * 2 == runs.len(),
        "cells are (default, ptemagnet) pairs",
    );
    if pairs.is_empty() {
        return model;
    }
    let mut log_ratio = 0.0;
    for (d, p) in &pairs {
        let improvement = 1.0 - num(p, "cycles") / num(d, "cycles");
        log_ratio += (num(d, "cycles") / num(p, "cycles")).ln();
        if w == Workload::Fig6 {
            tally.check(
                improvement >= -0.01,
                "fig6: every benchmark's PTEMagnet improvement is >= -1%",
            );
        }
        if matches!(w, Workload::Fig6 | Workload::Fleet) {
            tally.check(
                num(p, "host_frag") == 1.0 && num(d, "host_frag") > 1.0,
                "host_frag is 1.0 under PTEMagnet and > 1 under default",
            );
        }
        model.host_frag_default += num(d, "host_frag") / pairs.len() as f64;
        model.host_frag_ptemagnet += num(p, "host_frag") / pairs.len() as f64;
    }
    model.gain_pct = 100.0 * (1.0 - 1.0 / (log_ratio / pairs.len() as f64).exp());
    let sum = |k: &str| -> u64 {
        runs.iter()
            .map(|r| r.get(k).and_then(Json::as_u64).unwrap_or(0))
            .sum()
    };
    model.tlb_lookups = sum("tlb_lookups");
    model.tlb_misses = sum("tlb_misses");
    model.data_accesses = sum("data_accesses");
    model.data_misses = sum("data_misses");
    model
}

/// FNV-1a 64 of the results bytes, shifted to 52 bits so the value stays
/// exact as a JSON number.
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h >> 12
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_manifests_validate_and_keep_their_names() {
        for w in Workload::ALL {
            let m = job(w, 7);
            m.validate().expect("valid");
            assert_eq!(m.seeds, vec![7]);
            setup_job(&m).validate().expect("setup valid");
        }
    }

    #[test]
    fn seeds_change_inputs_deterministically() {
        assert_eq!(
            job(Workload::Fault, 1).to_json(),
            job(Workload::Fault, 1).to_json()
        );
        assert_ne!(
            job(Workload::Fault, 1).to_json(),
            job(Workload::Fault, 2).to_json()
        );
        assert_ne!(
            job(Workload::Fig6, 0).to_json(),
            job(Workload::Fig6, 1).to_json()
        );
    }

    #[test]
    fn serve_stream_is_one_cold_job_in_three() {
        let s = ServeStream::new(MAX_SEED);
        let mut cold = std::collections::BTreeSet::new();
        for i in 0..300 {
            let (m, hit) = s.submission(i);
            assert_eq!(hit.is_none(), i % 3 == 0);
            match hit {
                None => assert!(cold.insert(m.seeds[0]), "cold manifests are new"),
                Some(k) => assert_eq!(m.to_json(), s.pool(k).to_json()),
            }
            assert!(m.seeds[0] < 1 << 53);
        }
        assert_eq!(cold.len(), 100);
    }

    #[test]
    fn digest_fits_a_json_number() {
        assert!(digest("anything") < 1 << 52);
        assert_ne!(digest("a"), digest("b"));
    }
}
