//! Environment-knob tests, isolated in their own binary: every test here
//! mutates process environment variables, so they serialize on one lock
//! and no other integration-test binary can observe a half-set state.

use graphpim::config::PimMode;
use graphpim::experiments::{DiskCache, Experiments, RunKey};
use graphpim_graph::generate::LdbcSize;
use std::sync::Mutex;

/// All tests in this binary mutate the environment; they take this lock
/// for their whole body so the default parallel test runner cannot
/// interleave them.
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn from_env_rejects_unknown_scale() {
    let _guard = ENV_LOCK.lock().unwrap();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    std::env::set_var("GRAPHPIM_SCALE", "10000");
    let result = std::panic::catch_unwind(|| Experiments::from_env().size());
    let message = *result
        .expect_err("typo'd scale must panic, not fall back to a default")
        .downcast::<String>()
        .expect("panic payload");
    assert!(
        message.contains("1k, 10k, 100k, 1m"),
        "error must list valid values: {message}"
    );

    // Case-insensitive accept path.
    std::env::set_var("GRAPHPIM_SCALE", "1K");
    let size = std::panic::catch_unwind(|| Experiments::from_env().size())
        .expect("uppercase scale is valid");
    assert_eq!(size, LdbcSize::K1);

    std::env::remove_var("GRAPHPIM_SCALE");
    std::panic::set_hook(prev_hook);
}

#[test]
fn same_key_is_a_disk_hit_across_scale_knob_values() {
    let _guard = ENV_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("graphpim-envknob-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = RunKey::new("DC", PimMode::Baseline, LdbcSize::K1);

    // Populate the cache from a context whose default scale is 1k.
    std::env::set_var("GRAPHPIM_SCALE", "1k");
    let first = Experiments::with_cache(LdbcSize::K1, Some(DiskCache::at(&dir)));
    let want = first.metrics_for(&key);
    assert_eq!(first.simulations_executed(), 1);
    drop(first);

    // A context at another default scale asks for the same explicit key:
    // the key already names its size, so the knob changes no result and
    // the entry must be reused, not classified stale.
    std::env::set_var("GRAPHPIM_SCALE", "10k");
    let second = Experiments::with_cache(LdbcSize::K10, Some(DiskCache::at(&dir)));
    assert_eq!(second.metrics_for(&key), want);
    assert_eq!(second.simulations_executed(), 0, "no re-simulation");
    assert_eq!(second.disk_cache_hits(), 1);
    assert_eq!(second.profile().disk_stale(), 0);

    std::env::remove_var("GRAPHPIM_SCALE");
    let _ = std::fs::remove_dir_all(&dir);
}
