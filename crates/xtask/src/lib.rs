//! `xtask` — the workspace's static-analysis harness.
//!
//! `cargo run -p xtask -- lint` (or `cargo xtask lint` via the alias in
//! `.cargo/config.toml`) walks `src/`, `crates/`, `tests/`, and
//! `vendor/rayon/` (the scheduler is hot-path-linted; the other vendored
//! stand-ins are not walked) and enforces the determinism, hot-path and
//! hygiene invariants the runtime test suite can only sample:
//!
//! * **Token rules** ([`rules`]) — hash-map bans in protocol crates, ambient
//!   entropy/wall-clock bans, `RC_THREADS` read confinement, allocation bans
//!   inside the `hotpaths.toml` engine functions, and doc coverage for
//!   `pub fn`s in the accounting crates.
//! * **Crate hygiene** ([`lint_workspace`]) — every non-vendor crate must
//!   carry `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` in its entry
//!   source file and inherit the centralized `[workspace.lints]` table via
//!   `[lints] workspace = true` in its manifest.
//!
//! Everything is hand-rolled (lexer, TOML subset, directory walk): the
//! workspace builds fully offline and the linter must not be the first thing
//! to need crates.io. See `README.md` § "Static analysis & invariants" for
//! the rule list and the pragma format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

use config::HotPathConfig;
use rules::Diagnostic;
use std::fs;
use std::path::{Path, PathBuf};

/// The directories (workspace-relative) the linter walks. `vendor/rayon` is
/// included deliberately: the work-stealing scheduler is a determinism- and
/// allocation-critical hot path (its inner-loop functions are listed in
/// `hotpaths.toml`), unlike the other vendored stand-ins, which stay outside
/// the walk so they remain drop-in replaceable.
pub const WALK_ROOTS: [&str; 4] = ["src", "crates", "tests", "vendor/rayon"];

/// Path of the hot-path config, relative to the workspace root.
pub const HOTPATHS_PATH: &str = "crates/xtask/hotpaths.toml";

/// Crates audited for hygiene: workspace-relative crate directories. The
/// root facade crate is `"."`; vendored stand-ins are exempt (they document
/// their own contracts and must stay drop-in replaceable).
pub fn hygiene_crates(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut sub: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        sub.sort();
        dirs.extend(sub);
    }
    dirs
}

/// Recursively collects `.rs` files under `dir`, skipping `fixtures/` trees
/// (the linter's own known-bad test inputs) and anything named `target`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Normalizes `path` (under `root`) to a workspace-relative, `/`-separated
/// string — the form every rule and `hotpaths.toml` entry uses.
fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Loads and parses `hotpaths.toml` from the workspace root.
pub fn load_hotpaths(root: &Path) -> Result<HotPathConfig, String> {
    let path = root.join(HOTPATHS_PATH);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(HotPathConfig::from_entries(config::parse_hotpaths(&text)?))
}

/// Runs every rule over the workspace rooted at `root`. Returns diagnostics
/// sorted by `(file, line, rule)`; an empty vec means the lint is green.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let hotpaths = load_hotpaths(root)?;
    let mut files = Vec::new();
    for walk_root in WALK_ROOTS {
        collect_rs_files(&root.join(walk_root), &mut files);
    }
    let mut diags = Vec::new();
    for path in &files {
        let rel = rel_str(root, path);
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        diags.extend(rules::lint_tokens(&rel, &lexer::lex(&src), &hotpaths));
    }
    // Every hotpaths.toml file must exist and define every listed function
    // outside test code, walked or not (a renamed or deleted file or function
    // would otherwise silently drop its allocation lint).
    for (file, functions) in &hotpaths.by_file {
        let path = root.join(file);
        let mut drift = |message: String| {
            diags.push(Diagnostic {
                file: HOTPATHS_PATH.to_string(),
                line: 1,
                rule: "hot-path-alloc",
                message,
            })
        };
        if !path.is_file() {
            drift(format!(
                "hotpaths.toml lists `{file}` but that file does not exist"
            ));
            continue;
        }
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        for f in rules::missing_hot_path_fns(&lexer::lex(&src), functions) {
            drift(format!(
                "hotpaths.toml lists fn `{f}` in `{file}` but that file defines no such \
                 function outside #[cfg(test)]"
            ));
        }
    }
    for crate_dir in hygiene_crates(root) {
        diags.extend(lint_crate_hygiene(root, &crate_dir));
    }
    diags.sort();
    diags.dedup();
    Ok(diags)
}

/// The crate-hygiene audit for one crate directory: lint headers in the
/// entry source file and `[lints] workspace = true` in the manifest.
pub fn lint_crate_hygiene(root: &Path, crate_dir: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let manifest = crate_dir.join("Cargo.toml");
    let entry = ["src/lib.rs", "src/main.rs"]
        .iter()
        .map(|p| crate_dir.join(p))
        .find(|p| p.is_file());

    match entry {
        Some(entry_path) => {
            let rel = rel_str(root, &entry_path);
            let src = fs::read_to_string(&entry_path).unwrap_or_default();
            let lexed = lexer::lex(&src);
            for (attr, why) in [
                ("forbid(unsafe_code)", "the workspace is 100% safe Rust"),
                ("warn(missing_docs)", "public API must stay documented"),
            ] {
                if !has_inner_attr(&lexed.tokens, attr) {
                    diags.push(Diagnostic {
                        file: rel.clone(),
                        line: 1,
                        rule: "crate-hygiene",
                        message: format!("missing `#![{attr}]` header ({why})"),
                    });
                }
            }
        }
        None => diags.push(Diagnostic {
            file: rel_str(root, crate_dir),
            line: 1,
            rule: "crate-hygiene",
            message: "crate has neither src/lib.rs nor src/main.rs".to_string(),
        }),
    }

    let rel_manifest = rel_str(root, &manifest);
    match fs::read_to_string(&manifest) {
        Ok(text) => {
            if !manifest_inherits_workspace_lints(&text) {
                diags.push(Diagnostic {
                    file: rel_manifest,
                    line: 1,
                    rule: "crate-hygiene",
                    message: "manifest does not inherit the centralized lint table: add \
                              `[lints]\\nworkspace = true`"
                        .to_string(),
                });
            }
        }
        Err(e) => diags.push(Diagnostic {
            file: rel_manifest,
            line: 1,
            rule: "crate-hygiene",
            message: format!("cannot read manifest: {e}"),
        }),
    }
    diags
}

/// True if the token stream contains `#![name(arg)]` for `attr` written as
/// `"name(arg)"`.
fn has_inner_attr(toks: &[lexer::Token], attr: &str) -> bool {
    let (name, arg) = attr
        .split_once('(')
        .map(|(n, a)| (n, a.trim_end_matches(')')))
        .unwrap_or((attr, ""));
    toks.windows(6).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(name)
            && w[4].is_punct('(')
            && w[5].is_ident(arg)
    })
}

/// True if the manifest text contains a `[lints]` section whose body sets
/// `workspace = true`.
fn manifest_inherits_workspace_lints(text: &str) -> bool {
    let mut in_lints = false;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints {
            let mut parts = line.splitn(2, '=');
            let key = parts.next().unwrap_or("").trim();
            let value = parts.next().unwrap_or("").trim();
            if key == "workspace" && value == "true" {
                return true;
            }
        }
    }
    false
}

/// Locates the workspace root: walks up from `start` to the first directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_attr_detection() {
        let lexed = lexer::lex("#![forbid(unsafe_code)]\n#![warn(missing_docs)]\nfn f() {}\n");
        assert!(has_inner_attr(&lexed.tokens, "forbid(unsafe_code)"));
        assert!(has_inner_attr(&lexed.tokens, "warn(missing_docs)"));
        assert!(!has_inner_attr(&lexed.tokens, "forbid(missing_docs)"));
    }

    #[test]
    fn manifest_lints_detection() {
        assert!(manifest_inherits_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(!manifest_inherits_workspace_lints(
            "[package]\nname = \"x\"\n"
        ));
        assert!(!manifest_inherits_workspace_lints(
            "[lints]\nworkspace = false\n"
        ));
        assert!(!manifest_inherits_workspace_lints(
            "[lints.rust]\nworkspace = true\n"
        ));
    }
}
