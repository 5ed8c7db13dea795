//! Integration tests for the parallel experiment engine: concurrent
//! prewarming must be bit-identical to serial simulation, the disk cache
//! must round-trip results across contexts, and telemetry must be
//! observation-only. (Environment-mutating tests live in the dedicated
//! `cache_env` binary so they cannot race contexts created here.)

use graphpim::config::PimMode;
use graphpim::experiments::{DiskCache, Experiments, RunKey};
use graphpim::metrics::RunMetrics;
use graphpim_graph::generate::LdbcSize;
use std::path::PathBuf;

fn eval_keys() -> Vec<RunKey> {
    ["DC", "BFS"]
        .iter()
        .flat_map(|&kernel| {
            [PimMode::Baseline, PimMode::GraphPim]
                .map(|mode| RunKey::new(kernel, mode, LdbcSize::K1))
        })
        .collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphpim-engine-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_prewarm_is_bit_identical_to_serial() {
    let keys = eval_keys();

    // Serial reference: one run per key, no disk cache, no pool.
    let serial = Experiments::with_cache(LdbcSize::K1, None);
    let expected: Vec<RunMetrics> = keys.iter().map(|k| serial.metrics_for(k)).collect();

    // Hammer one shared context from several threads at once; every
    // thread asks for the full key set.
    let parallel = Experiments::with_cache(LdbcSize::K1, None);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| parallel.prewarm(keys.iter().cloned()));
        }
    });

    // Each distinct key was simulated exactly once despite 4 requesters...
    assert_eq!(parallel.simulations_executed(), keys.len());
    assert_eq!(parallel.cached_runs(), keys.len());
    // ...and every result matches the serial run bit for bit.
    for (key, want) in keys.iter().zip(&expected) {
        let got = parallel.metrics_for(key);
        assert_eq!(&got, want, "parallel result diverged for {key:?}");
        assert_eq!(
            got.total_cycles.to_bits(),
            want.total_cycles.to_bits(),
            "cycle count not bit-identical for {key:?}"
        );
    }
}

#[test]
fn prewarm_deduplicates_keys() {
    let ctx = Experiments::with_cache(LdbcSize::K1, None);
    let key = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1);
    ctx.prewarm(vec![key.clone(), key.clone(), key.clone()]);
    assert_eq!(ctx.simulations_executed(), 1);
}

#[test]
fn disk_cache_round_trips_across_contexts() {
    let dir = tmp_dir("roundtrip");
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    // First context simulates and persists.
    let first = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    let computed = first.metrics_for(&key);
    assert_eq!(first.simulations_executed(), 1);
    assert_eq!(first.disk_cache_hits(), 0);
    drop(first);

    // A fresh context over the same directory replays from disk: zero new
    // simulations, equal metrics.
    let second = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    let replayed = second.metrics_for(&key);
    assert_eq!(
        second.simulations_executed(),
        0,
        "warm cache must not re-simulate"
    );
    assert_eq!(second.disk_cache_hits(), 1);
    assert_eq!(replayed, computed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_cache_misses_on_different_run_parameters() {
    let dir = tmp_dir("params");
    let key = RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1);

    let first = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    first.metrics_for(&key);
    drop(first);

    // Same kernel/mode/size but a different FU count resolves to a
    // different config, so the persisted entry must not be reused.
    let second = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    second.metrics_for(&key.clone().with_fus(1));
    assert_eq!(second.simulations_executed(), 1);
    assert_eq!(second.disk_cache_hits(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entry_under_another_fingerprint_is_stale() {
    let dir = tmp_dir("stale");
    let key = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1);

    let first = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    let want = first.metrics_for(&key);
    drop(first);

    // Re-file the entry under a fingerprint no context computes: the run
    // is still on disk, but for another configuration.
    let stem = key.file_stem();
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with(&stem))
        .expect("entry written");
    std::fs::rename(&entry, dir.join(format!("{stem}-{:016x}.json", 0))).unwrap();

    let second = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    assert_eq!(second.metrics_for(&key), want);
    assert_eq!(second.simulations_executed(), 1, "stale entry re-simulates");
    assert_eq!(second.disk_cache_hits(), 0);
    assert_eq!(
        second.profile().disk_stale(),
        1,
        "a sibling entry is classified stale, not miss"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_replay_is_bit_identical() {
    let keys = eval_keys();
    let trace_dir = tmp_dir("traced");

    // Plain reference sweep.
    let plain = Experiments::with_cache(LdbcSize::K1, None);
    let expected: Vec<RunMetrics> = keys.iter().map(|k| plain.metrics_for(k)).collect();

    // Same sweep with tracing on: telemetry must be observation-only.
    let traced = Experiments::with_cache(LdbcSize::K1, None).with_perfetto_dir(&trace_dir);
    traced.prewarm(keys.iter().cloned());
    for (key, want) in keys.iter().zip(&expected) {
        let got = traced.metrics_for(key);
        assert_eq!(&got, want, "tracing changed the result for {key:?}");
        assert_eq!(
            got.total_cycles.to_bits(),
            want.total_cycles.to_bits(),
            "cycle count not bit-identical under tracing for {key:?}"
        );
        let trace_file = trace_dir.join(format!("{}.trace.json", key.file_stem()));
        assert!(trace_file.is_file(), "missing trace {trace_file:?}");
    }

    // The engine profile saw the prewarm fan-out and every simulation.
    let profile = traced.profile();
    assert_eq!(profile.runs().len(), keys.len());
    assert_eq!(profile.prewarms().len(), 1);
    assert_eq!(profile.prewarms()[0].keys, keys.len());
    assert!(profile.simulated_seconds() > 0.0);
    assert!(profile.summary().contains("[profile] runs:"));

    let _ = std::fs::remove_dir_all(&trace_dir);
}
