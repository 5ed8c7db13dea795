//! The reference host speed.
//!
//! The reference box is a VM on a shared host whose speed drifts: the
//! same work runs up to twice as slow from one minute to the next, and
//! every host time moves with it. So each repetition's host times are
//! scaled to a reference speed, measured by a fixed integer loop.
//!
//! The loop runs in the parent process, just before and just after each
//! repetition's child, while no repository code runs anywhere in the
//! benchmark: the parent never builds an `Experiments` or boots a
//! service, and the child has exited. So no change to the repository can
//! change the loop's time, and a change to the code moves the scaled
//! numbers exactly as it moves the measured ones.

use crate::metrics::{Scaling, SCALED};
use crate::report::Outcome;
use std::time::Instant;

/// Iterations of the loop on each of its two threads.
const ALU_ITERS: u64 = 40_000_000;

/// What the loop takes at the reference speed, the reference box's
/// typical one.
const REFERENCE_ALU_S: f64 = 0.06;

/// Wall time of a fixed integer loop on two threads, as the sweep's two
/// workers run.
pub fn alu_s() -> f64 {
    let spin = || {
        let mut x = 1u64;
        // `black_box` keeps every step on the dependency chain, so the
        // compiler cannot unroll the recurrence into independent work.
        for i in 0..ALU_ITERS {
            x = std::hint::black_box(x)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i);
        }
        std::hint::black_box(x);
    };
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(spin);
        spin();
    });
    start.elapsed().as_secs_f64()
}

/// Records the loop's mean around one repetition (its time `before` and
/// `after` the child) as `host.alu_s`, and adds every scaled metric from
/// its `raw.` samples at the reference speed: times are multiplied by
/// `REFERENCE_ALU_S / alu_s`, rates divided.
pub fn to_reference(out: &mut Outcome, before: f64, after: f64) {
    let alu_s = (before + after) / 2.0;
    out.sample("host.alu_s", alu_s);
    let factor = REFERENCE_ALU_S / alu_s;
    for (name, scaling) in SCALED {
        let raw = out.samples.get(&format!("raw.{name}")).cloned();
        for value in raw.into_iter().flatten() {
            out.sample(
                name,
                match scaling {
                    Scaling::Time => value * factor,
                    Scaling::Rate => value / factor,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_host_scales_times_down_and_rates_up() {
        let mut out = Outcome::default();
        out.sample("raw.sweep_s", 2.0);
        out.sample("raw.sweep_s", 3.0);
        out.sample("raw.serve_rps", 100.0);
        // The loop ran at twice its reference time.
        to_reference(&mut out, 0.12, 0.12);
        assert_eq!(out.samples["host.alu_s"], vec![0.12]);
        assert_eq!(out.samples["sweep_s"], vec![1.0, 1.5]);
        assert_eq!(out.samples["serve_rps"], vec![200.0]);
        assert!(!out.samples.contains_key("setup_s"), "nothing to scale");
    }
}
