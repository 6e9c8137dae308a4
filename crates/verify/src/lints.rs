//! Custom determinism/robustness lints over the workspace sources.
//!
//! Each rule is a set of needle substrings matched against scrubbed code
//! lines (comments and literal contents removed, `#[cfg(test)] mod`
//! regions exempt — see [`crate::lexer`]) within a path scope. Hits must
//! either be fixed or explicitly allowlisted in `crates/verify/allowlist.txt`
//! — a checked-in file, so every new exemption shows up in review as a
//! diff to it.
//!
//! The rules encode the properties the simulator's claims rest on:
//! bit-reproducible runs for a given seed (no unordered iteration, no wall
//! clock, no ambient randomness), honest counters (no silent narrowing
//! casts on cycle/flit arithmetic), and a panic-free per-cycle hot path.
//! Three concurrency rules guard the fleet layer's model-checkability
//! (DESIGN.md §14): all synchronization must flow through the
//! `crate::sync` facade (`no-raw-std-sync-in-fleet`), `Ordering::Relaxed`
//! is reserved for allowlisted pure-diagnostic counters
//! (`no-relaxed-ordering`), and every `unsafe` block workspace-wide must
//! carry an adjacent `// SAFETY:` comment ([`UNSAFE_RULE_ID`]).
//!
//! Test code is exempt throughout: `#[cfg(test)]`-gated modules (including
//! compound gates like `#[cfg(all(test, ...))]`) via line tags, and
//! integration-test files under a `tests/` directory via their path.

use crate::lexer::scrub;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint rule: needles, a path scope, and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier, used as the allowlist key.
    pub id: &'static str,
    /// Substrings that flag a scrubbed code line.
    pub needles: &'static [&'static str],
    /// Repo-relative path prefixes the rule applies to.
    pub scope: &'static [&'static str],
    /// Path prefixes carved out of `scope` (e.g. the one module that is
    /// allowed to hold the pattern everything else must route through).
    pub exempt: &'static [&'static str],
    /// Why a hit is a problem.
    pub rationale: &'static str,
}

/// Crates whose code *is* the simulation semantics, plus the
/// observability crate: anything nondeterministic in the former breaks
/// bit-reproducibility of runs, and while `pnoc-obs` never feeds back into
/// simulation state, its exports (event traces, occupancy CSVs, JSON dumps)
/// are diffed in CI, so they must be deterministic too.
const SIM_STATE_AND_OBS: &[&str] = &[
    "crates/noc/src",
    "crates/sim/src",
    "crates/faults/src",
    "crates/traffic/src",
    "crates/trace/src",
    "crates/cmp/src",
    "crates/obs/src",
    "crates/oracle/src",
];

/// The rule registry.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-unordered-collections",
        needles: &["HashMap", "HashSet"],
        scope: SIM_STATE_AND_OBS,
        exempt: &[],
        rationale: "iteration order of std hash collections varies across \
                    runs/platforms; simulation state must use BTreeMap/BTreeSet \
                    or Vec so identical seeds give identical runs",
    },
    Rule {
        id: "no-wall-clock",
        needles: &["Instant::now", "SystemTime"],
        scope: SIM_STATE_AND_OBS,
        exempt: &[],
        rationale: "model code must be a pure function of (config, seed); \
                    wall-clock reads make runs unreproducible",
    },
    Rule {
        id: "no-ambient-randomness",
        needles: &[
            "thread_rng",
            "from_entropy",
            "rand::random",
            "OsRng",
            "getrandom",
        ],
        scope: &["crates", "src", "examples"],
        exempt: &[],
        rationale: "all randomness must flow through pnoc-sim's seeded \
                    SimRng streams; ambient entropy sources break replay",
    },
    Rule {
        id: "no-silent-truncation",
        needles: &[
            " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
        ],
        scope: &["crates/noc/src", "crates/sim/src", "crates/faults/src"],
        exempt: &[],
        rationale: "cycle and flit counters are u64/usize; a narrowing `as` \
                    cast silently wraps on long runs — use try_from or \
                    allowlist the cast with a justification",
    },
    Rule {
        id: "no-hot-path-unwrap",
        needles: &[".unwrap(", ".expect("],
        scope: &["crates/noc/src"],
        exempt: &[],
        rationale: "per-cycle channel/network code must not contain latent \
                    panics; restructure with let-else/take patterns, or \
                    allowlist construction-time validation",
    },
    Rule {
        id: "no-hot-path-alloc",
        needles: &["Vec::new", "vec!", "Box::new", ".to_vec("],
        scope: &["crates/noc/src"],
        exempt: &[],
        rationale: "the per-cycle kernel shuffles indices through \
                    preallocated arenas, planes, and calendars; a heap \
                    allocation token in phase code is a regression to the \
                    struct-shuffling design. Construction-time allocation \
                    (new/with_capacity bodies, audit snapshots) is fine — \
                    allowlist it with a justification",
    },
    Rule {
        id: "no-raw-std-sync-in-fleet",
        needles: &["std::sync", "std::thread"],
        scope: &["crates/fleet/src"],
        // The facade itself and the model checker behind it are the two
        // places that must name the std primitives.
        exempt: &["crates/fleet/src/sync.rs", "crates/fleet/src/model"],
        rationale: "fleet code must reach synchronization through the \
                    crate::sync facade so `--features model-sync` runs the \
                    shipping executor/snapshot code under the model checker; \
                    a raw std::sync/std::thread import bypasses it",
    },
    Rule {
        id: "no-relaxed-ordering",
        needles: &["Ordering::Relaxed"],
        scope: &["crates", "src", "examples"],
        exempt: &[],
        rationale: "Relaxed is reserved for pure-diagnostic counters that \
                    no control flow depends on; anything that guards a \
                    protocol needs Acquire/Release or SeqCst — every \
                    exemption carries its justification in the allowlist",
    },
];

/// Rule id of the `unsafe`-needs-`// SAFETY:` check. Not needle-driven (it
/// must inspect the *comments* the scrubber blanks), so it lives beside
/// [`RULES`] rather than in it, but shares the allowlist machinery.
pub const UNSAFE_RULE_ID: &str = "unsafe-needs-safety-comment";

const UNSAFE_RULE_RATIONALE: &str =
    "every unsafe block must state its soundness argument in a `// SAFETY:` \
     comment on the same or an immediately preceding comment line";

/// Scope of [`UNSAFE_RULE_ID`]: the whole workspace.
const UNSAFE_RULE_SCOPE: &[&str] = &["crates", "src", "examples"];

/// Does the scrubbed code line use the `unsafe` keyword? Token-exact, so
/// `#![forbid(unsafe_code)]` and identifiers containing "unsafe" don't hit.
fn has_unsafe_token(code: &str) -> bool {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|tok| tok == "unsafe")
}

/// Is the `unsafe` at `idx` covered by a `SAFETY:` comment — on the same
/// line, or on the contiguous run of `//` comment lines directly above?
fn has_safety_comment(lines: &[crate::lexer::ScrubbedLine], idx: usize) -> bool {
    if lines[idx].original.contains("SAFETY:") {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = lines[j].original.trim_start();
        if t.starts_with("//") {
            if t.contains("SAFETY:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// One lint hit.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule that fired.
    pub rule: &'static str,
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Trimmed original source line (the allowlist key content).
    pub content: String,
    /// The rule's rationale.
    pub rationale: &'static str,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Hits not covered by the allowlist (failures).
    pub violations: Vec<Violation>,
    /// Allowlisted hits (informational).
    pub allowlisted: usize,
    /// Allowlist entries that matched nothing (failures: stale entries).
    pub stale_entries: Vec<String>,
}

impl LintReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.stale_entries.is_empty()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            let _ = writeln!(
                s,
                "{}:{}: [{}] {}\n    {}\n    to exempt: add `{}\t{}\t{}` to crates/verify/allowlist.txt",
                v.path, v.line, v.rule, v.content, v.rationale, v.rule, v.path, v.content
            );
        }
        for e in &self.stale_entries {
            let _ = writeln!(s, "stale allowlist entry (matches nothing): {e}");
        }
        let _ = writeln!(
            s,
            "lints: {} files scanned, {} violations, {} allowlisted, {} stale entries",
            self.files_scanned,
            self.violations.len(),
            self.allowlisted,
            self.stale_entries.len()
        );
        s
    }
}

/// Parse `allowlist.txt` content: `rule<TAB>path<TAB>trimmed line`, `#`
/// comments and blank lines ignored.
fn parse_allowlist(text: &str) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        if let (Some(rule), Some(path), Some(content)) = (parts.next(), parts.next(), parts.next())
        {
            out.push((rule.to_string(), path.to_string(), content.to_string()));
        }
    }
    out
}

/// Recursively collect `.rs` files under `root`, skipping build output,
/// vendored dependencies, and VCS metadata. Sorted for deterministic
/// reporting.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Run every rule over the workspace at `root`, applying the allowlist at
/// `root/crates/verify/allowlist.txt` (missing file = empty allowlist).
pub fn run_lints(root: &Path) -> LintReport {
    let allowlist_path = root.join("crates/verify/allowlist.txt");
    let allowlist = fs::read_to_string(&allowlist_path)
        .map(|t| parse_allowlist(&t))
        .unwrap_or_default();
    let mut used = vec![false; allowlist.len()];

    let mut report = LintReport::default();
    for file in collect_rs_files(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        // Integration-test files are test code, same as `#[cfg(test)] mod`
        // regions (the line-level tag cannot see them, so exempt by path).
        if rel.contains("/tests/") {
            continue;
        }
        let applies = |scope: &[&str], exempt: &[&str]| {
            scope.iter().any(|s| rel.starts_with(s)) && !exempt.iter().any(|e| rel.starts_with(e))
        };
        let in_scope: Vec<&Rule> = RULES
            .iter()
            .filter(|r| applies(r.scope, r.exempt))
            .collect();
        let check_unsafe = applies(UNSAFE_RULE_SCOPE, &[]);
        if in_scope.is_empty() && !check_unsafe {
            continue;
        }
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        report.files_scanned += 1;
        let lines = scrub(&source);
        let mut record = |rule: &'static str,
                          rationale: &'static str,
                          number: usize,
                          content: String,
                          report: &mut LintReport| {
            let hit = allowlist
                .iter()
                .position(|(r, p, c)| r == rule && *p == rel && *c == content);
            if let Some(idx) = hit {
                used[idx] = true;
                report.allowlisted += 1;
            } else {
                report.violations.push(Violation {
                    rule,
                    path: rel.clone(),
                    line: number,
                    content,
                    rationale,
                });
            }
        };
        for (i, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            for rule in &in_scope {
                if !rule.needles.iter().any(|n| line.code.contains(n)) {
                    continue;
                }
                let content = line.original.trim().to_string();
                record(rule.id, rule.rationale, line.number, content, &mut report);
            }
            if check_unsafe && has_unsafe_token(&line.code) && !has_safety_comment(&lines, i) {
                let content = line.original.trim().to_string();
                record(
                    UNSAFE_RULE_ID,
                    UNSAFE_RULE_RATIONALE,
                    line.number,
                    content,
                    &mut report,
                );
            }
        }
    }
    for (idx, (r, p, c)) in allowlist.iter().enumerate() {
        if !used[idx] {
            report.stale_entries.push(format!("{r}\t{p}\t{c}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_have_unique_ids_and_nonempty_needles() {
        for (i, a) in RULES.iter().enumerate() {
            assert!(!a.needles.is_empty());
            assert!(!a.scope.is_empty());
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn allowlist_parser_skips_comments_and_blanks() {
        let parsed = parse_allowlist(
            "# comment\n\nno-hot-path-unwrap\tcrates/noc/src/x.rs\tfoo.unwrap();\n",
        );
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "no-hot-path-unwrap");
    }

    #[test]
    fn workspace_passes_its_own_lints() {
        // The repo root is two levels up from this crate's manifest.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = run_lints(&root);
        assert!(report.files_scanned > 50, "walker found the workspace");
        assert!(report.ok(), "\n{}", report.render());
    }

    #[test]
    fn unsafe_token_is_word_exact() {
        assert!(has_unsafe_token("unsafe {"));
        assert!(has_unsafe_token("pub unsafe fn f()"));
        assert!(!has_unsafe_token("#![forbid(unsafe_code)]"));
        assert!(!has_unsafe_token("let unsafety = 1;"));
    }

    #[test]
    fn safety_comment_covers_same_line_and_comment_run_above() {
        let src = "// SAFETY: fine\nunsafe { a() }\n\nunsafe { b() } // SAFETY: also fine\n// unrelated\n// comment\nunsafe { c() }\n";
        let lines = scrub(src);
        assert!(has_safety_comment(&lines, 1), "comment line above");
        assert!(has_safety_comment(&lines, 3), "same line");
        assert!(!has_safety_comment(&lines, 6), "no SAFETY in the run above");
    }

    /// The concurrency rules must actually fire — build a throwaway mini
    /// workspace and lint it (the self-lint above only proves the absence
    /// of hits, which a vacuous rule would also pass).
    #[test]
    fn concurrency_rules_fire_on_violations() {
        let root = std::env::temp_dir().join(format!("pnoc-lint-selftest-{}", std::process::id()));
        let fleet = root.join("crates/fleet/src");
        fs::create_dir_all(&fleet).expect("mk test tree");
        fs::write(
            fleet.join("bad.rs"),
            "use std::sync::Mutex;\nfn f(x: &std::sync::atomic::AtomicU64) { x.load(Ordering::Relaxed); }\nfn g() { unsafe { h() } }\n",
        )
        .expect("write bad.rs");
        // The facade file may name std::sync freely.
        fs::write(fleet.join("sync.rs"), "pub use std::sync::Mutex;\n").expect("write sync.rs");
        // SAFETY-commented unsafe is clean.
        fs::write(
            fleet.join("ok.rs"),
            "fn g() {\n    // SAFETY: test fixture\n    unsafe { h() }\n}\n",
        )
        .expect("write ok.rs");
        let report = run_lints(&root);
        fs::remove_dir_all(&root).expect("rm test tree");

        let fired: Vec<(&str, &str)> = report
            .violations
            .iter()
            .map(|v| (v.rule, v.path.as_str()))
            .collect();
        assert!(
            fired.contains(&("no-raw-std-sync-in-fleet", "crates/fleet/src/bad.rs")),
            "{fired:?}"
        );
        assert!(
            fired.contains(&("no-relaxed-ordering", "crates/fleet/src/bad.rs")),
            "{fired:?}"
        );
        assert!(
            fired.contains(&(UNSAFE_RULE_ID, "crates/fleet/src/bad.rs")),
            "{fired:?}"
        );
        assert!(
            !fired.iter().any(|(_, p)| p.ends_with("sync.rs")),
            "facade must be exempt: {fired:?}"
        );
        assert!(
            !fired
                .iter()
                .any(|(r, p)| *r == UNSAFE_RULE_ID && p.ends_with("ok.rs")),
            "SAFETY-commented unsafe must pass: {fired:?}"
        );
    }

    /// The hot-path allocation rule must fire on every needle inside
    /// crates/noc/src, skip `#[cfg(test)]` regions, and leave other crates
    /// alone.
    #[test]
    fn hot_path_alloc_rule_fires_in_noc_only() {
        let root = std::env::temp_dir().join(format!("pnoc-alloc-selftest-{}", std::process::id()));
        let noc = root.join("crates/noc/src");
        let sim = root.join("crates/sim/src");
        fs::create_dir_all(&noc).expect("mk noc tree");
        fs::create_dir_all(&sim).expect("mk sim tree");
        fs::write(
            noc.join("hot.rs"),
            "fn phase() {\n    let a = Vec::new();\n    let b = vec![0; 4];\n    let c = Box::new(1);\n    let d = s.to_vec();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = Vec::new(); }\n}\n",
        )
        .expect("write hot.rs");
        fs::write(sim.join("elsewhere.rs"), "fn f() { let v = Vec::new(); }\n")
            .expect("write elsewhere.rs");
        let report = run_lints(&root);
        fs::remove_dir_all(&root).expect("rm test tree");

        let alloc_hits: Vec<&str> = report
            .violations
            .iter()
            .filter(|v| v.rule == "no-hot-path-alloc")
            .map(|v| v.content.as_str())
            .collect();
        assert_eq!(
            alloc_hits.len(),
            4,
            "one hit per needle, none from the test region or other crates: {alloc_hits:?}"
        );
        for needle in ["Vec::new", "vec!", "Box::new", ".to_vec("] {
            assert!(
                alloc_hits.iter().any(|c| c.contains(needle)),
                "needle {needle} did not fire: {alloc_hits:?}"
            );
        }
    }
}
