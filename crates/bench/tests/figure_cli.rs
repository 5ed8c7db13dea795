//! The `figure` binary's argument errors: no id, an unknown id, and
//! `--json` on a text-only entry each exit 2, name every valid id, and
//! stop before building an experiment context, so nothing simulates.

use graphpim::experiments::figjson::ENTRIES;
use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(args)
        .env("GRAPHPIM_SCALE", "1k")
        .env("GRAPHPIM_NO_CACHE", "1")
        .env("GRAPHPIM_NO_TRACE_STORE", "1")
        .output()
        .expect("spawn figure");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed a figure");
    for id in ENTRIES.iter().map(|f| f.id).chain(["all"]) {
        assert!(
            stderr.contains(id),
            "{args:?}: usage must name {id}: {stderr}"
        );
    }
    assert!(
        !stderr.contains("[figure] scale"),
        "{args:?} built a context: {stderr}"
    );
}

#[test]
fn no_id_is_rejected() {
    assert_rejected(&[]);
    assert_rejected(&["--json"]);
}

#[test]
fn unknown_id_is_rejected() {
    assert_rejected(&["fig99"]);
    assert_rejected(&["fig07", "fig99"]);
    assert_rejected(&["fig07", "--jsn"]);
}

#[test]
fn json_of_a_text_only_entry_is_rejected() {
    assert_rejected(&["tables", "--json"]);
    assert_rejected(&["all", "--json"]);
}
