//! `tables` fails loudly, before it measures anything: an unknown
//! argument exits 2, and a `--json` path it cannot write exits 1.

use std::process::Command;

fn tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables runs")
}

#[test]
fn unknown_argument_exits_two() {
    assert_eq!(tables(&["--bogus"]).status.code(), Some(2));
}

#[test]
fn unwritable_json_path_exits_one() {
    // A path below a regular file can never be created.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/cells.json");
    let out = tables(&["--json", path]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to write cell metrics"), "{stderr}");
    assert!(out.stdout.is_empty(), "no sweep may start");
}
