//! The benchmark's workloads and the seeded request mix of their serve
//! phase.
//!
//! Every workload is one user session against the experiment engine: a
//! cold sweep, repeated, and then a closed loop of two clients reading
//! the results through `graphpim-serve`. The sweep workloads differ in
//! what the sweep stresses (see each `why`) and serve only briefly;
//! `serve-1k` spends most of its time serving. The read mix is the same
//! shape everywhere so the serve numbers compare across input sizes.

use graphpim::config::PimMode;
use graphpim::experiments::{RunKey, EVAL_KERNELS};
use graphpim_graph::generate::{LdbcSize, SplitMix64};

/// How a workload's sweep is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `fig07::run` on the context, as the `fig07` binary does.
    Figure7,
    /// `Experiments::prewarm` of the workload's run set.
    Prewarm,
    /// `POST /sweeps {"fig": "fig07"}` on a freshly booted service,
    /// followed over `GET /jobs/{id}/events` until the job is done.
    Served,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
    /// LDBC input scale.
    pub size: LdbcSize,
    /// Kernels of the run set; each runs under all three modes.
    pub kernels: &'static [&'static str],
    /// Memory-lean streaming mode (encoded-bytes trace residency).
    pub streaming: bool,
    /// How the sweep is driven.
    pub sweep: Sweep,
    /// Golden file (under `golden/`) the run set is checked against.
    pub golden: &'static str,
    /// Share of `--seconds` spent in the serve phase; cold sweeps take
    /// the rest.
    pub serve_share: f64,
}

/// The sweep workloads' serve share: a quarter of the default 24 s is
/// enough for the thousand requests p99 needs at 1k.
const BRIEF_SERVE: f64 = 0.25;

/// Memory-bound run set: no TC or SSSP, so no weighted graph and no
/// capture-heavy kernel; DC and kCore keep a cold sweep near five seconds
/// on two workers while the 100k CSR sits near the modelled 16 MB L3.
const MEM_KERNELS: [&str; 2] = ["DC", "kCore"];

/// All workloads, in the order a default invocation runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig07-1k",
        why: "cold Figure 7 sweep (8 kernels x 3 modes) at LDBC-1k; TC capture, decode and replay sit on the critical path",
        size: LdbcSize::K1,
        kernels: &EVAL_KERNELS,
        streaming: false,
        sweep: Sweep::Figure7,
        golden: "fig07-1k",
        serve_share: BRIEF_SERVE,
    },
    Workload {
        name: "stream-1k",
        why: "the same sweep in streaming mode: capture to file, encoded-bytes residency, frame-by-frame decode on every replay",
        size: LdbcSize::K1,
        kernels: &EVAL_KERNELS,
        streaming: true,
        sweep: Sweep::Figure7,
        golden: "fig07-1k",
        serve_share: BRIEF_SERVE,
    },
    Workload {
        name: "mem-100k",
        why: "DC and kCore x 3 modes at LDBC-100k: replay-bound on the core-cache-HMC memory path, capture small",
        size: LdbcSize::K100,
        kernels: &MEM_KERNELS,
        streaming: false,
        sweep: Sweep::Prewarm,
        golden: "mem-100k",
        serve_share: BRIEF_SERVE,
    },
    Workload {
        name: "serve-1k",
        why: "graphpim-serve under a 15 s closed loop of two clients, after the Figure 7 sweep is submitted to it and followed to done",
        size: LdbcSize::K1,
        kernels: &EVAL_KERNELS,
        streaming: false,
        sweep: Sweep::Served,
        golden: "fig07-1k",
        // 15 s of the default 24 s.
        serve_share: 0.625,
    },
];

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The run set, kernel-major (the order `fig07::keys` uses).
    pub fn keys(&self) -> Vec<RunKey> {
        self.kernels
            .iter()
            .flat_map(|&k| PimMode::ALL.map(|mode| RunKey::new(k, mode, self.size)))
            .collect()
    }

    /// Whether the run set is Figure 7's, so `GET /figures/fig07` serves.
    pub fn serves_figure(&self) -> bool {
        self.kernels == EVAL_KERNELS
    }

    /// Whether the run set needs the weighted graph (SSSP does).
    pub fn weighted(&self) -> bool {
        self.kernels.contains(&"SSSP")
    }

    /// The `size=` token the service's trace endpoint accepts.
    pub fn size_token(&self) -> &'static str {
        match self.size {
            LdbcSize::K1 => "1k",
            LdbcSize::K10 => "10k",
            LdbcSize::K100 => "100k",
            LdbcSize::M1 => "1m",
        }
    }
}

/// One request of the serve phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `GET /figures/fig07`.
    Figure,
    /// `GET /counters/{stem}` of the run at this index of the run set.
    Counters(usize),
    /// `GET /traces/{kernel}?size=..&supersteps=0..2` of this kernel.
    Trace(usize),
    /// `POST /sweeps` of the (cached) run set, then its event stream.
    Sweep,
}

/// Requests per block of the mix. The shares are assumed, not measured
/// from real traffic: 70% figure reads, 15% counters reads, 10% trace
/// slices and 5% sweeps. Every block holds them exactly (56 / 12 / 8 /
/// 4), so a run's cost does not depend on how a seed happens to draw
/// them: one `/traces` read of a large trace costs as much as hundreds of
/// `/figures` reads (the service reads and checksums the whole stored
/// trace for any slice). 80 is the smallest block that holds the shares
/// exactly and slices each of Figure 7's eight kernels once.
pub const BLOCK: usize = 80;

/// Requests of each kind per block: figure, counters, trace, sweep.
const SHARES: [usize; 4] = [56, 12, 8, 4];

/// The seeded request sequence of one client, block by block: the
/// figure reads, counters reads of seeded runs, trace slices cycling
/// over the kernels, and sweeps, in a seeded order. Without a served
/// figure the figure share goes to counters.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: SplitMix64,
    figure: bool,
    runs: u64,
    kernels: usize,
    block: Vec<Request>,
}

impl Mix {
    /// Client `client`'s sequence for `workload` under `seed`.
    pub fn new(workload: &Workload, seed: u64, client: u64) -> Mix {
        Mix {
            rng: SplitMix64::new(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            figure: workload.serves_figure(),
            runs: (workload.kernels.len() * PimMode::ALL.len()) as u64,
            kernels: workload.kernels.len(),
            block: Vec::with_capacity(BLOCK),
        }
    }

    fn refill(&mut self) {
        let [reads, counters, traces, sweeps] = SHARES;
        let figures = if self.figure { reads } else { 0 };
        for _ in 0..(reads + counters - figures) {
            let run = self.rng.next_below(self.runs) as usize;
            self.block.push(Request::Counters(run));
        }
        self.block
            .extend(std::iter::repeat_n(Request::Figure, figures));
        self.block
            .extend((0..traces).map(|i| Request::Trace(i % self.kernels)));
        self.block
            .extend(std::iter::repeat_n(Request::Sweep, sweeps));
        for i in (1..self.block.len()).rev() {
            let j = self.rng.next_below(i as u64 + 1) as usize;
            self.block.swap(i, j);
        }
    }
}

impl Iterator for Mix {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(workload: &Workload, seed: u64, client: u64) -> Vec<Request> {
        Mix::new(workload, seed, client).take(500).collect()
    }

    #[test]
    fn mix_repeats_for_a_seed_and_differs_across_seeds_and_clients() {
        let w = by_name("fig07-1k").unwrap();
        assert_eq!(take(w, 7, 0), take(w, 7, 0));
        assert_ne!(take(w, 7, 0), take(w, 8, 0));
        assert_ne!(take(w, 7, 0), take(w, 7, 1));
    }

    #[test]
    fn every_block_has_the_stated_shares() {
        let count =
            |reqs: &[Request], f: &dyn Fn(&Request) -> bool| reqs.iter().filter(|r| f(r)).count();
        let w = by_name("fig07-1k").unwrap();
        let reqs: Vec<Request> = Mix::new(w, 7, 0).take(BLOCK * 3).collect();
        for block in reqs.chunks(BLOCK) {
            // 70% / 15% / 10% / 5%.
            assert_eq!(count(block, &|r| *r == Request::Figure), 56);
            assert_eq!(count(block, &|r| matches!(r, Request::Counters(_))), 12);
            assert_eq!(count(block, &|r| *r == Request::Sweep), 4);
            for k in 0..8 {
                assert_eq!(count(block, &|r| *r == Request::Trace(k)), 1, "kernel {k}");
            }
        }
        // Without a served figure, counters take its share.
        let mem = by_name("mem-100k").unwrap();
        let reqs: Vec<Request> = Mix::new(mem, 7, 0).take(BLOCK).collect();
        assert_eq!(count(&reqs, &|r| *r == Request::Figure), 0);
        assert_eq!(
            count(&reqs, &|r| matches!(r, Request::Counters(i) if *i < 6)),
            68
        );
        assert_eq!(count(&reqs, &|r| *r == Request::Trace(0)), 4);
        assert_eq!(count(&reqs, &|r| *r == Request::Trace(1)), 4);
    }

    #[test]
    fn run_sets_match_the_figure_order() {
        let w = by_name("fig07-1k").unwrap();
        let ctx = graphpim::experiments::Experiments::with_cache(LdbcSize::K1, None);
        assert_eq!(w.keys(), graphpim::experiments::fig07::keys(&ctx));
        assert_eq!(by_name("mem-100k").unwrap().keys().len(), 6);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }
}
