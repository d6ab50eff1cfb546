//! Capture build provenance at compile time so every artifact the
//! pipeline writes (metrics reports, trace files, bench JSONs) can say
//! exactly which source revision and toolchain produced it. Both values
//! degrade to `"unknown"` rather than failing the build: the crate must
//! compile from a source tarball with no `.git` and under a toolchain
//! that hides `rustc` from the environment.

use std::path::Path;
use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    if line.is_empty() {
        None
    } else {
        Some(line.to_string())
    }
}

fn main() {
    let sha = capture("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    // A dirty tree is marked so a bench number can never silently claim to
    // come from a clean commit.
    let dirty = capture("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let sha = match dirty {
        Some(true) => format!("{sha}-dirty"),
        _ => sha,
    };
    println!("cargo:rustc-env=XDATA_GIT_SHA={sha}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version =
        capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=XDATA_RUSTC_VERSION={version}");

    // Re-capture when the checked-out commit moves: HEAD itself (a branch
    // switch), the ref HEAD names (a commit on the branch) and packed-refs
    // (where that ref may live instead). git resolves each path, so linked
    // worktrees and relocated git dirs work too. Only existing paths are
    // watched, since Cargo reruns the script on every build for a missing
    // one; with none (no git) the script watches itself and runs once. A
    // stale sha on pure source edits is acceptable (the -dirty marker
    // covers those).
    let head_ref = capture("git", &["symbolic-ref", "-q", "HEAD"]);
    let mut watched: Vec<String> = ["HEAD".to_string(), "packed-refs".to_string()]
        .into_iter()
        .chain(head_ref)
        .filter_map(|name| capture("git", &["rev-parse", "--git-path", &name]))
        .filter(|path| Path::new(path).exists())
        .collect();
    if watched.is_empty() {
        watched.push("build.rs".to_string());
    }
    for path in watched {
        println!("cargo:rerun-if-changed={path}");
    }
}
