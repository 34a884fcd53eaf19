//! Self-run: the real workspace must analyze clean under the real
//! manifests, and the generated metrics manifest must be fresh. This
//! is the same gate `scripts/ci.sh` runs via the binary; keeping it in
//! `cargo test` means a violation fails the tier-1 suite too.

use std::path::PathBuf;

use softcell_analyzer::analyze_root;
use softcell_analyzer::config::{glob_match, Config};
use softcell_analyzer::lexer::Token;
use softcell_analyzer::parse::FileModel;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

#[test]
fn real_workspace_has_no_unsuppressed_findings() {
    let root = repo_root();
    let cfg = Config::load(&root).expect("analysis manifests parse");
    assert!(
        !cfg.lock_order.is_empty(),
        "lock_order.toml missing or empty"
    );
    assert!(
        !cfg.wire_scopes.is_empty(),
        "wire_paths.toml missing or empty"
    );
    assert!(
        !cfg.atomics_files.is_empty(),
        "atomics.toml missing or empty"
    );
    assert!(
        cfg.metrics_manifest.is_some(),
        "metrics_manifest.toml missing: run `softcell-analyzer --write-metrics-manifest`"
    );

    let analysis = analyze_root(&root, &cfg);
    assert!(
        analysis.files_scanned > 50,
        "walker found only {} files — broken discovery",
        analysis.files_scanned
    );
    let bad: Vec<String> = analysis.unsuppressed().map(|f| f.render()).collect();
    assert!(
        bad.is_empty(),
        "workspace must analyze clean (manifest drift included):\n{}",
        bad.join("\n")
    );
}

/// The callee's name when a function body is nothing but one call —
/// `name(..)`, `self.name(..)` or `Self::name(..)`, optionally ending in
/// `?` or `;` — else `None`.
fn sole_callee(body: &[Token]) -> Option<&str> {
    let receiver = |t: &Token| {
        matches!(t.ident(), Some("self" | "Self")) || t.is_punct('.') || t.is_punct(':')
    };
    let start = body.iter().position(|t| !receiver(t))?;
    let [name, open, rest @ ..] = &body[start..] else {
        return None;
    };
    if !open.is_punct('(') {
        return None;
    }
    let mut depth = 1usize;
    let close = rest.iter().position(|t| {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
        }
        depth == 0
    })?;
    rest[close + 1..]
        .iter()
        .all(|t| t.is_punct('?') || t.is_punct(';'))
        .then(|| name.ident())?
}

/// A `wire_paths.toml` scope protects nothing if it names no function,
/// or names a wrapper whose callee — the code that actually reads the
/// peer's bytes — is out of scope.
#[test]
fn wire_scopes_name_the_functions_that_read_the_wire() {
    let root = repo_root();
    let cfg = Config::load(&root).expect("analysis manifests parse");
    for scope in &cfg.wire_scopes {
        let src = std::fs::read_to_string(root.join(&scope.file))
            .unwrap_or_else(|e| panic!("{}: {e}", scope.file));
        let model = FileModel::parse(&scope.file, &src);
        let live: Vec<_> = model.funcs.iter().filter(|f| !f.is_test).collect();
        for pat in &scope.functions {
            assert!(
                live.iter().any(|f| glob_match(pat, &f.qual)),
                "{}: pattern {pat:?} matches no non-test function",
                scope.file
            );
        }
        for func in live.iter().filter(|f| scope.matches_fn(&f.qual)) {
            let Some(callee) = sole_callee(&model.tokens[func.body.clone()]) else {
                continue;
            };
            let unscoped = live
                .iter()
                .find(|f| f.qual.rsplit("::").next() == Some(callee) && !scope.matches_fn(&f.qual));
            assert!(
                unscoped.is_none(),
                "{}: scoped `{}` only forwards to `{callee}`, which no scope names",
                scope.file,
                func.qual
            );
        }
    }
}
