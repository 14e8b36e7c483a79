//! Linter self-tests: every rule must fire on its known-bad fixture at the
//! exact `file:line`, pragmas must suppress, clean input must stay clean, and
//! the real workspace must lint green (the dogfood test).
//!
//! The fixture corpus lives in `tests/fixtures/` — a directory the linter's
//! own workspace walk skips, so the known-bad snippets never pollute a real
//! `cargo xtask lint` run. Fixtures are linted *as if* they lived at a
//! pretend protocol-crate path, because rule scoping is path-driven.

use std::path::{Path, PathBuf};
use xtask::config::{HotPath, HotPathConfig};
use xtask::lexer::lex;
use xtask::rules::{lint_tokens, Diagnostic};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(name: &str) -> String {
    let path = fixture_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints fixture `name` as if it lived at `pretend_path` in the workspace.
fn lint_fixture(name: &str, pretend_path: &str, cfg: &HotPathConfig) -> Vec<Diagnostic> {
    lint_tokens(pretend_path, &lex(&fixture(name)), cfg)
}

fn lines(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn hash_collections_fixture_fires_at_exact_lines() {
    let diags = lint_fixture(
        "bad_hash_collections.rs",
        "crates/graph/src/fixture.rs",
        &HotPathConfig::default(),
    );
    assert!(
        diags.iter().all(|d| d.rule == "hash-collections"),
        "{diags:?}"
    );
    assert!(diags
        .iter()
        .all(|d| d.file == "crates/graph/src/fixture.rs"));
    // Line 9 holds both the type annotation and the constructor; the
    // `#[cfg(test)]` HashSet at line 14 must NOT appear.
    assert_eq!(lines(&diags, "hash-collections"), vec![5, 6, 9, 9]);
    assert_eq!(
        diags[0].to_string().split(':').take(2).collect::<Vec<_>>(),
        vec!["crates/graph/src/fixture.rs", "5"],
        "Display must render file:line first for editor jump-to"
    );
}

#[test]
fn nondeterminism_fixture_fires_at_exact_lines() {
    let diags = lint_fixture(
        "bad_nondeterminism.rs",
        "crates/coresets/src/fixture.rs",
        &HotPathConfig::default(),
    );
    assert!(
        diags.iter().all(|d| d.rule == "nondeterminism"),
        "{diags:?}"
    );
    assert_eq!(lines(&diags, "nondeterminism"), vec![6, 7, 8, 9]);
}

#[test]
fn env_threads_fixture_fires_at_exact_lines() {
    let diags = lint_fixture(
        "bad_env_threads.rs",
        "crates/bench/src/fixture.rs",
        &HotPathConfig::default(),
    );
    assert!(diags.iter().all(|d| d.rule == "env-threads"), "{diags:?}");
    assert_eq!(lines(&diags, "env-threads"), vec![6, 7]);
    // The same source under vendor/rayon is exempt.
    assert!(lint_fixture(
        "bad_env_threads.rs",
        "vendor/rayon/src/lib.rs",
        &HotPathConfig::default()
    )
    .is_empty());
}

#[test]
fn hot_path_alloc_fixture_fires_only_inside_watched_fn() {
    let cfg = HotPathConfig::from_entries(vec![HotPath {
        file: "crates/matching/src/engine.rs".into(),
        functions: vec!["solve_inner".into()],
        reason: "fixture".into(),
    }]);
    let diags = lint_fixture(
        "bad_hot_path_alloc.rs",
        "crates/matching/src/engine.rs",
        &cfg,
    );
    assert!(
        diags.iter().all(|d| d.rule == "hot-path-alloc"),
        "{diags:?}"
    );
    // One hit per allocation pattern inside `solve_inner`; the identical
    // `.to_vec()` inside `cold_path` (line 14) must NOT appear.
    assert_eq!(lines(&diags, "hot-path-alloc"), vec![6, 7, 8, 9, 10]);
}

/// Config drift: every `hotpaths.toml` function that is gone from its file,
/// or left only in test code, is reported against the config, as is a file
/// that is gone — also for files outside the lint walk.
#[test]
fn hot_path_drift_fixture_reports_every_missing_function() {
    let diags = xtask::lint_workspace(&fixture_dir().join("drift_workspace")).expect("lint runs");
    let drift: Vec<&str> = diags
        .iter()
        .filter(|d| d.file == xtask::HOTPATHS_PATH)
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(drift.len(), 4, "{diags:?}");
    for (name, file) in [
        ("deleted", "src/lib.rs"),
        ("test_only", "src/lib.rs"),
        ("renamed_away", "vendor/outside/src/lib.rs"),
    ] {
        assert!(
            drift
                .iter()
                .any(|m| m.contains(&format!("fn `{name}` in `{file}`"))),
            "{name}: {drift:?}"
        );
    }
    assert!(drift
        .iter()
        .any(|m| m.contains("`src/gone.rs` but that file does not exist")));
    assert!(drift
        .iter()
        .all(|m| !m.contains("`kept`") && !m.contains("`present`")));
}

#[test]
fn missing_docs_fixture_fires_at_exact_line() {
    let diags = lint_fixture(
        "bad_missing_docs.rs",
        "crates/graph/src/fixture.rs",
        &HotPathConfig::default(),
    );
    assert_eq!(lines(&diags, "missing-docs"), vec![8], "{diags:?}");
    assert!(diags[0].message.contains("undocumented"));
}

#[test]
fn error_hygiene_fixture_fires_at_exact_lines() {
    let diags = lint_fixture(
        "bad_error_hygiene.rs",
        "crates/distsim/src/fixture.rs",
        &HotPathConfig::default(),
    );
    assert!(diags.iter().all(|d| d.rule == "error-hygiene"), "{diags:?}");
    // `.unwrap()`, `.expect(`, `panic!` in the library fn; the `unwrap_or`
    // at line 10 and the whole `#[cfg(test)]` module must NOT appear.
    assert_eq!(lines(&diags, "error-hygiene"), vec![5, 6, 8]);
    // The same source outside graph/distsim is out of scope.
    assert!(lint_fixture(
        "bad_error_hygiene.rs",
        "crates/matching/src/fixture.rs",
        &HotPathConfig::default()
    )
    .is_empty());
}

#[test]
fn pragmas_suppress_every_listed_violation() {
    let diags = lint_fixture(
        "suppressed.rs",
        "crates/graph/src/fixture.rs",
        &HotPathConfig::default(),
    );
    assert!(
        diags.is_empty(),
        "pragma-carrying fixture must lint clean: {diags:?}"
    );
}

#[test]
fn clean_fixture_stays_clean_in_every_scope() {
    for pretend in [
        "crates/graph/src/fixture.rs",
        "crates/coresets/src/fixture.rs",
        "src/fixture.rs",
        "tests/fixture.rs",
    ] {
        let diags = lint_fixture("clean.rs", pretend, &HotPathConfig::default());
        assert!(diags.is_empty(), "{pretend}: {diags:?}");
    }
}

#[test]
fn crate_hygiene_flags_missing_headers_and_lint_inheritance() {
    let root = fixture_dir();
    let diags = xtask::lint_crate_hygiene(&root, &root.join("bad_crate"));
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["crate-hygiene"; 3], "{diags:?}");
    assert!(diags
        .iter()
        .any(|d| d.message.contains("forbid(unsafe_code)")));
    assert!(diags
        .iter()
        .any(|d| d.message.contains("warn(missing_docs)")));
    assert!(diags.iter().any(|d| d.message.contains("[lints]")));
    assert!(
        diags
            .iter()
            .filter(|d| d.message.contains("header"))
            .all(|d| d.file == "bad_crate/src/lib.rs"),
        "{diags:?}"
    );
}

/// CLI contract half 1: the binary exits nonzero on a broken workspace and
/// prints `file:line: [rule]` diagnostics.
#[test]
fn cli_exits_nonzero_on_bad_workspace_with_file_line() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(fixture_dir().join("bad_workspace"))
        .output()
        .expect("run xtask binary");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("src/lib.rs:1: [hash-collections]"),
        "diagnostic must carry exact file:line, got:\n{stdout}"
    );
}

/// CLI contract half 2 (the dogfood test): the real workspace lints green, so
/// `cargo test` itself enforces every invariant the linter encodes.
#[test]
fn cli_exits_zero_on_the_real_workspace() {
    let root = xtask::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("xtask lives inside the workspace");
    let diags = xtask::lint_workspace(&root).expect("lint runs");
    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&root)
        .output()
        .expect("run xtask binary");
    assert_eq!(out.status.code(), Some(0));
}
