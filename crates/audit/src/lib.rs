//! # peerwindow-audit
//!
//! A determinism/robustness linter for the PeerWindow workspace. The
//! protocol's headline guarantee — bit-identical simulation results for
//! identical seeds, across shard counts — is easy to break silently:
//! one `HashMap` iteration, one `Instant::now()`, one `as` truncation in
//! the identifier algebra, and runs diverge in ways no unit test pins
//! down. This crate encodes those hazards as mechanical rules:
//!
//! * **hash-collections** — `HashMap`/`HashSet` in the protocol crates
//!   (`core`, `des`, `sim`): std's `RandomState` gives every instance a
//!   different iteration order, so any iteration (`iter`, `values`,
//!   `keys`, `retain`, …) is a nondeterminism hazard. Sites that only
//!   ever do key lookups annotate `// audit: ordered <why>`; everything
//!   else uses `BTreeMap`/`BTreeSet`. `core::idmap::IdMap` is seedless,
//!   but its slot order follows the operation history, not the ids: its
//!   one walk in that order, `iter_unordered`, is matched too, and each
//!   call site says why the order cannot reach an output.
//! * **wall-clock** — `Instant::now`, `SystemTime::now`, `thread_rng`
//!   outside the `transport` and `bench` crates and the metrics
//!   runtime's clock module (`crates/metrics/src/runtime/clock.rs`, the
//!   one blessed `Instant` site feeding the engine profiler): simulated
//!   time and seeded [`DetRng`]-style streams only.
//! * **panic-sites** — `.unwrap()` / `.expect(` in the core
//!   message/event-handling modules: malformed or late input must map to
//!   typed `ProtocolError`s, never a crash. Provably unreachable sites
//!   annotate `// audit: panic-ok <why>`.
//! * **raw-print** — `println!`/`eprintln!` (and their non-newline
//!   forms) in library sources outside the `bench` crate and outside
//!   `src/bin/` entry points: protocol code reports through the trace
//!   layer's structured records and counters, never the terminal, and
//!   the `pw` subcommands write to the `out`/`err` writers they are
//!   handed. Deliberate sites annotate `// audit: print-ok <why>`.
//! * **lossy-casts** — narrowing `as` casts in the NodeId/eigenstring
//!   algebra (`id.rs`, `level.rs`, `parts.rs`): 128-bit identifier math
//!   silently truncated to 32 bits is the classic split-brain bug.
//!   Widening or otherwise-safe casts annotate `// audit: cast-ok <why>`.
//! * **fault-injection** — fault-layer types (`FaultPlan`,
//!   `LinkConditioner`, the `peerwindow_faults` crate)
//!   outside the harness layers (`faults` itself, `sim`, `bench`,
//!   `cli`): the protocol and engine crates must stay free of
//!   network-misbehaviour concepts — and of the RNG draws they imply.
//!   Deliberate sites annotate `// audit: fault-ok <why>`.
//! * **atomic-ordering** — every explicit atomic memory ordering
//!   (`Ordering::Relaxed` … `Ordering::SeqCst`) in the parallel engine
//!   (`crates/des`) must carry an `// audit: ordering — <why>`
//!   justification naming the synchronization it relies on. Orderings
//!   are the one place where a too-weak choice produces a data race the
//!   deterministic test suite cannot reproduce, and a too-strong choice
//!   silently costs the hot path; both failure modes look identical in
//!   review without the written pairing argument.
//! * **forbid-unsafe** — `#![forbid(unsafe_code)]` must be present in
//!   the `core`, `des`, `topology`, `sim`, and `workload` crate roots.
//! * **allowlist-drift** — every `audit.toml` allow entry must still
//!   exempt at least one finding the empty-config scan produces. A
//!   stale entry reads as an active suppression and would silently
//!   re-exempt the path if the hazard ever reappeared there.
//!
//! The scanner is line/token based by design (no external parser — the
//! build environment is offline). Two structural conventions of this
//! repository make that sound: test modules (`#[cfg(test)]`) always sit
//! at the bottom of a file, so scanning stops there, and comments are
//! `//`-style. Per-rule allowlists live in `audit.toml` at the workspace
//! root; in-file annotations handle single sites.
//!
//! [`DetRng`]: https://docs.rs/rand/latest/rand/trait.SeedableRng.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

// ----------------------------------------------------------------------
// Findings
// ----------------------------------------------------------------------

/// One rule violation at one source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (e.g. `hash-collections`).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The offending source line, trimmed (or a description for
    /// whole-file findings).
    pub text: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.text
        )
    }
}

// ----------------------------------------------------------------------
// Rules
// ----------------------------------------------------------------------

/// The modules of `peerwindow-core` that sit on the message/event path —
/// the scope of the `panic-sites` rule. An entry ending in `/` covers
/// every file below it.
const PANIC_SCOPED: &[&str] = &[
    "crates/core/src/node.rs",
    "crates/core/src/node/",
    "crates/core/src/messages.rs",
    "crates/core/src/event.rs",
    "crates/core/src/multicast.rs",
    "crates/core/src/peer_list.rs",
    "crates/core/src/top_list.rs",
];

/// Identifier-algebra modules — the scope of the `lossy-casts` rule.
const CAST_SCOPED: &[&str] = &[
    "crates/core/src/id.rs",
    "crates/core/src/level.rs",
    "crates/core/src/parts.rs",
];

/// Crates whose `src/lib.rs` must carry `#![forbid(unsafe_code)]`.
const FORBID_UNSAFE_CRATES: &[&str] = &["core", "des", "topology", "sim", "workload"];

struct TokenRule {
    name: &'static str,
    /// Tokens whose presence (outside comments/tests) is a finding.
    tokens: &'static [&'static str],
    /// Annotation that exempts a single site (on the line or the line
    /// directly above).
    annotation: &'static str,
    /// Whether the rule applies to this workspace-relative path.
    applies: fn(&str) -> bool,
}

fn in_protocol_crates(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/des/src/")
        || path.starts_with("crates/sim/src/")
}

fn outside_wall_clock_crates(path: &str) -> bool {
    !path.starts_with("crates/transport/")
        && !path.starts_with("crates/bench/")
        && !path.starts_with("crates/metrics/src/runtime/clock.rs")
}

fn in_panic_scope(path: &str) -> bool {
    PANIC_SCOPED
        .iter()
        .any(|s| path == *s || (s.ends_with('/') && path.starts_with(s)))
}

/// Library sources of every crate except `bench` (whose whole purpose
/// is terminal output), and never binaries (`src/bin/…`).
fn in_print_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && !path.starts_with("crates/bench/")
        && !path.contains("/bin/")
        && path.contains("/src/")
}

fn in_cast_scope(path: &str) -> bool {
    CAST_SCOPED.contains(&path)
}

/// The parallel engine — the only place the workspace uses atomics, and
/// the scope of the `atomic-ordering` rule.
fn in_atomic_scope(path: &str) -> bool {
    path.starts_with("crates/des/src/")
}

/// Library sources that must stay free of fault-injection concepts: the
/// protocol, the engines, and every support crate below the harness
/// layer. The `faults` crate itself, the `sim` harnesses that interpret
/// plans, `bench` (overhead measurement) and `cli` (the `pw chaos` and
/// `pw cluster` harnesses) are the only legitimate homes — plus the one
/// transport file `audit.toml` allowlists, `src/shim.rs`, the userspace
/// netem shim that applies plans to real sockets.
fn in_fault_free_scope(path: &str) -> bool {
    [
        "core",
        "des",
        "topology",
        "workload",
        "transport",
        "trace",
        "metrics",
    ]
    .iter()
    .any(|c| path.starts_with(&format!("crates/{c}/src/")))
}

const RULES: &[TokenRule] = &[
    TokenRule {
        name: "hash-collections",
        tokens: &["HashMap", "HashSet", "iter_unordered"],
        annotation: "audit: ordered",
        applies: in_protocol_crates,
    },
    TokenRule {
        name: "wall-clock",
        tokens: &["Instant::now", "SystemTime::now", "thread_rng"],
        annotation: "audit: wall-clock-ok",
        applies: outside_wall_clock_crates,
    },
    TokenRule {
        name: "panic-sites",
        tokens: &[".unwrap()", ".expect("],
        annotation: "audit: panic-ok",
        applies: in_panic_scope,
    },
    TokenRule {
        name: "raw-print",
        tokens: &["println!", "eprintln!", "print!(", "eprint!("],
        annotation: "audit: print-ok",
        applies: in_print_scope,
    },
    TokenRule {
        name: "fault-injection",
        tokens: &["peerwindow_faults", "FaultPlan", "LinkConditioner"],
        annotation: "audit: fault-ok",
        applies: in_fault_free_scope,
    },
    TokenRule {
        name: "atomic-ordering",
        tokens: &[
            "Ordering::Relaxed",
            "Ordering::Acquire",
            "Ordering::Release",
            "Ordering::AcqRel",
            "Ordering::SeqCst",
        ],
        annotation: "audit: ordering",
        applies: in_atomic_scope,
    },
    TokenRule {
        name: "lossy-casts",
        tokens: &[
            " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
        ],
        annotation: "audit: cast-ok",
        applies: in_cast_scope,
    },
];

// ----------------------------------------------------------------------
// Configuration (audit.toml)
// ----------------------------------------------------------------------

/// Per-rule allowlists, parsed from `audit.toml` at the workspace root.
///
/// The accepted grammar is a deliberately small TOML subset (the build
/// is offline, so no TOML crate):
///
/// ```toml
/// [rules.hash-collections]
/// allow = ["crates/sim/src/generated.rs"]
/// ```
///
/// An allow entry exempts every finding whose path starts with it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditConfig {
    allow: BTreeMap<String, Vec<String>>,
}

impl AuditConfig {
    /// Parses the `audit.toml` subset. Unknown sections or keys are
    /// errors — a typoed rule name silently allowing nothing would make
    /// the allowlist look effective when it is not.
    pub fn parse(text: &str) -> Result<AuditConfig, String> {
        let mut cfg = AuditConfig::default();
        let mut current: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let rule = section
                    .strip_prefix("rules.")
                    .ok_or_else(|| format!("line {}: unsupported section [{section}]", i + 1))?;
                if !RULES.iter().any(|r| r.name == rule) && rule != "forbid-unsafe" {
                    return Err(format!("line {}: unknown rule '{rule}'", i + 1));
                }
                cfg.allow.entry(rule.to_string()).or_default();
                current = Some(rule.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected 'key = value'", i + 1));
            };
            if key.trim() != "allow" {
                return Err(format!("line {}: unknown key '{}'", i + 1, key.trim()));
            }
            let Some(rule) = current.clone() else {
                return Err(format!(
                    "line {}: 'allow' outside a [rules.*] section",
                    i + 1
                ));
            };
            let value = value.trim();
            if !(value.starts_with('[') && value.ends_with(']')) {
                return Err(format!("line {}: 'allow' must be a [\"…\"] array", i + 1));
            }
            let entries = cfg.allow.entry(rule).or_default();
            for (j, chunk) in value.split('"').enumerate() {
                // Odd split indices are the quoted strings.
                if j % 2 == 1 {
                    entries.push(chunk.to_string());
                }
            }
        }
        Ok(cfg)
    }

    /// Loads `audit.toml` from `root`; a missing file is an empty config.
    pub fn load(root: &Path) -> Result<AuditConfig, String> {
        match std::fs::read_to_string(root.join("audit.toml")) {
            Ok(text) => Self::parse(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(AuditConfig::default()),
            Err(e) => Err(format!("audit.toml: {e}")),
        }
    }

    /// Whether `path` is allowlisted for `rule`.
    pub fn allowed(&self, rule: &str, path: &str) -> bool {
        self.allow
            .get(rule)
            .is_some_and(|entries| entries.iter().any(|p| path.starts_with(p.as_str())))
    }

    /// Every `(rule, allow-entry)` pair in the config, in rule order —
    /// the drift check walks these.
    pub fn allow_entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.allow
            .iter()
            .flat_map(|(rule, entries)| entries.iter().map(move |e| (rule.as_str(), e.as_str())))
    }
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

// ----------------------------------------------------------------------
// Scanner
// ----------------------------------------------------------------------

/// Scans one file's source for token-rule findings. `rel_path` is the
/// workspace-relative path with forward slashes (rule scoping keys off
/// it, so tests can lint fixture content under any logical path).
pub fn scan_source(rel_path: &str, source: &str, cfg: &AuditConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    for rule in RULES {
        if !(rule.applies)(rel_path) || cfg.allowed(rule.name, rel_path) {
            continue;
        }
        for (i, &line) in lines.iter().enumerate() {
            let trimmed = line.trim_start();
            // Test modules sit at the bottom of every file in this
            // repository; nothing below the marker is protocol code.
            if trimmed.starts_with("#[cfg(test)]") {
                break;
            }
            if trimmed.starts_with("//") {
                continue;
            }
            // Only the code portion can violate; the comment portion may
            // carry the annotation.
            let code = match line.find("//") {
                Some(pos) => &line[..pos],
                None => line,
            };
            if !rule.tokens.iter().any(|t| code.contains(t)) {
                continue;
            }
            if annotated(&lines, i, rule.annotation) {
                continue;
            }
            findings.push(Finding {
                rule: rule.name,
                path: rel_path.to_string(),
                line: i + 1,
                text: line.trim().to_string(),
            });
        }
    }
    findings
}

/// An annotation exempts a site when it appears in the line's own
/// comment or anywhere in the contiguous `//` comment block directly
/// above — justifications longer than one line (the norm for
/// `audit: ordering` pairing arguments) carry the tag on whichever
/// line reads best.
fn annotated(lines: &[&str], i: usize, tag: &str) -> bool {
    if lines[i].contains(tag) {
        return true;
    }
    let mut j = i;
    while j > 0 && lines[j - 1].trim_start().starts_with("//") {
        j -= 1;
        if lines[j].contains(tag) {
            return true;
        }
    }
    false
}

/// Checks the `forbid-unsafe` rule via an abstract reader so tests can
/// supply in-memory crates; `read` maps a workspace-relative path to
/// file contents (None = unreadable/missing).
pub fn forbid_unsafe_findings(
    cfg: &AuditConfig,
    read: impl Fn(&str) -> Option<String>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for krate in FORBID_UNSAFE_CRATES {
        let path = format!("crates/{krate}/src/lib.rs");
        if cfg.allowed("forbid-unsafe", &path) {
            continue;
        }
        let ok = read(&path)
            .map(|src| src.contains("#![forbid(unsafe_code)]"))
            .unwrap_or(false);
        if !ok {
            findings.push(Finding {
                rule: "forbid-unsafe",
                path,
                line: 0,
                text: "missing #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
    findings
}

// ----------------------------------------------------------------------
// Workspace walk
// ----------------------------------------------------------------------

/// Directories never scanned: build output, vendored deps, VCS metadata,
/// this crate's own rule fixtures, and the audit tool itself (its rule
/// tables contain every forbidden token by necessity).
fn skip_dir(name: &str) -> bool {
    matches!(name, "target" | "vendor" | ".git" | "fixtures" | "audit")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints the whole workspace rooted at `root`: every `.rs` file outside
/// the skip list, plus the `forbid-unsafe` crate-root check. Findings
/// come back sorted by path and line.
pub fn lint_workspace(root: &Path, cfg: &AuditConfig) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes {}", path.display(), root.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        findings.extend(scan_source(&rel, &source, cfg));
    }
    findings.extend(forbid_unsafe_findings(cfg, |rel| {
        std::fs::read_to_string(root.join(rel)).ok()
    }));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// The allowlist-drift check: every `audit.toml` allow entry must still
/// prefix-match at least one finding of its rule in `baseline` — the
/// findings an *empty-config* scan produces. An entry matching nothing
/// is dead: it documents an exemption that no longer exists, and it
/// would silently re-activate if the hazard ever reappeared under that
/// path. Dead entries are reported as `allowlist-drift` findings.
pub fn allowlist_drift_findings(cfg: &AuditConfig, baseline: &[Finding]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rule, entry) in cfg.allow_entries() {
        let exempts_something = baseline
            .iter()
            .any(|f| f.rule == rule && f.path.starts_with(entry));
        if !exempts_something {
            findings.push(Finding {
                rule: "allowlist-drift",
                path: entry.to_string(),
                line: 0,
                text: format!(
                    "allow entry for rule '{rule}' no longer matches any file or finding — \
                     remove it from audit.toml"
                ),
            });
        }
    }
    findings
}

/// The full audit: one empty-config scan of the workspace provides both
/// the real findings (baseline minus what `cfg` allowlists) and the
/// drift evidence (an allow entry exempting nothing in the baseline is
/// itself a finding). Filtering after the scan is equivalent to the
/// scan-time skip in [`lint_workspace`] — the allowlist only ever
/// removes whole files from a rule's scope.
pub fn lint_workspace_with_drift(root: &Path, cfg: &AuditConfig) -> Result<Vec<Finding>, String> {
    let baseline = lint_workspace(root, &AuditConfig::default())?;
    let mut findings: Vec<Finding> = baseline
        .iter()
        .filter(|f| !cfg.allowed(f.rule, &f.path))
        .cloned()
        .collect();
    findings.extend(allowlist_drift_findings(cfg, &baseline));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// The workspace root when running under cargo (two levels above this
/// crate's manifest).
pub fn default_root() -> std::path::PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            dir.parent()
                .and_then(Path::parent)
                .map(Path::to_path_buf)
                .unwrap_or(dir)
        }
        None => std::path::PathBuf::from("."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_cfg() -> AuditConfig {
        AuditConfig::default()
    }

    // ------------------------------------------------------------------
    // Each rule provably fires on its fixture.
    // ------------------------------------------------------------------

    #[test]
    fn hash_collections_fires_on_fixture() {
        let src = include_str!("../fixtures/hash_iteration.rs");
        let f = scan_source("crates/sim/src/bad.rs", src, &no_cfg());
        assert!(
            f.iter().any(|f| f.rule == "hash-collections"),
            "expected a hash-collections finding, got {f:?}"
        );
    }

    #[test]
    fn hash_collections_scoped_to_protocol_crates() {
        let src = include_str!("../fixtures/hash_iteration.rs");
        assert!(scan_source("crates/metrics/src/ok.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn ordered_annotation_exempts_hash_use() {
        let src = include_str!("../fixtures/hash_annotated.rs");
        let f = scan_source("crates/sim/src/annotated.rs", src, &no_cfg());
        assert!(f.is_empty(), "annotated sites must not fire: {f:?}");
    }

    #[test]
    fn hash_collections_fires_on_an_unordered_walk() {
        let src = include_str!("../fixtures/slot_order.rs");
        let f = scan_source("crates/core/src/bad.rs", src, &no_cfg());
        let lines: Vec<usize> = f
            .iter()
            .filter(|f| f.rule == "hash-collections")
            .map(|f| f.line)
            .collect();
        // The bare walk fires; the annotated one and the test tail don't.
        assert_eq!(lines, [7], "{f:?}");
    }

    #[test]
    fn wall_clock_fires_on_fixture() {
        let src = include_str!("../fixtures/wall_clock.rs");
        let f = scan_source("crates/des/src/bad_time.rs", src, &no_cfg());
        assert_eq!(
            f.iter().filter(|f| f.rule == "wall-clock").count(),
            3,
            "Instant::now, SystemTime::now and thread_rng must all fire: {f:?}"
        );
    }

    #[test]
    fn wall_clock_allowed_in_transport_and_bench() {
        let src = include_str!("../fixtures/wall_clock.rs");
        assert!(scan_source("crates/transport/src/runtime.rs", src, &no_cfg()).is_empty());
        assert!(scan_source("crates/bench/src/bin/perf.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn wall_clock_allowed_only_in_the_metrics_clock_module() {
        // PR 8 confines the simulation-side wall clock to one file: the
        // metrics runtime's `clock.rs`. The rest of the metrics crate —
        // and the engines that *consume* the sink — stay under the rule.
        let src = include_str!("../fixtures/wall_clock.rs");
        assert!(
            scan_source("crates/metrics/src/runtime/clock.rs", src, &no_cfg()).is_empty(),
            "the clock module is the blessed Instant site"
        );
        for path in [
            "crates/metrics/src/runtime/mod.rs",
            "crates/metrics/src/runtime/report.rs",
            "crates/metrics/src/histogram.rs",
            "crates/des/src/parallel.rs",
            "crates/core/src/node.rs",
        ] {
            let f = scan_source(path, src, &no_cfg());
            assert_eq!(
                f.iter().filter(|f| f.rule == "wall-clock").count(),
                3,
                "stray wall-clock reads in {path} must still fire: {f:?}"
            );
        }
    }

    #[test]
    fn panic_sites_fire_on_fixture() {
        let src = include_str!("../fixtures/panic_site.rs");
        let f = scan_source("crates/core/src/node.rs", src, &no_cfg());
        assert_eq!(
            f.iter().filter(|f| f.rule == "panic-sites").count(),
            2,
            "unwrap and expect must both fire: {f:?}"
        );
    }

    #[test]
    fn panic_ok_annotation_and_test_tail_are_exempt() {
        let src = include_str!("../fixtures/panic_annotated.rs");
        let f = scan_source("crates/core/src/node.rs", src, &no_cfg());
        assert!(
            f.is_empty(),
            "annotated/test-tail sites must not fire: {f:?}"
        );
    }

    #[test]
    fn panic_sites_cover_the_node_operation_modules() {
        let src = "fn probe(v: Option<u64>) -> u64 {\n    v.unwrap()\n}\n";
        let f = scan_source("crates/core/src/node/detect.rs", src, &no_cfg());
        assert_eq!(
            f.iter().filter(|f| f.rule == "panic-sites").count(),
            1,
            "an unwrap in a node operation module must fire: {f:?}"
        );
        let tail = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        let f = scan_source("crates/core/src/node/detect.rs", &tail, &no_cfg());
        assert!(f.is_empty(), "the test tail must stay exempt: {f:?}");
        // The directory entry is a prefix, not a substring match.
        assert!(scan_source("crates/core/src/nodes.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn raw_print_fires_on_fixture() {
        let src = include_str!("../fixtures/raw_print.rs");
        let f = scan_source("crates/core/src/node.rs", src, &no_cfg());
        assert_eq!(
            f.iter().filter(|f| f.rule == "raw-print").count(),
            4,
            "all four print macro forms must fire: {f:?}"
        );
    }

    #[test]
    fn raw_print_scoped_to_library_sources() {
        let src = include_str!("../fixtures/raw_print.rs");
        // Binaries and the terminal-output crates are out of scope.
        assert!(scan_source("crates/transport/src/bin/pwnode.rs", src, &no_cfg()).is_empty());
        assert!(scan_source("crates/bench/src/lib.rs", src, &no_cfg()).is_empty());
        // Library sources of protocol crates are in scope, and so are
        // the application layer and the `pw` subcommands.
        assert!(!scan_source("crates/transport/src/runtime.rs", src, &no_cfg()).is_empty());
        assert!(!scan_source("crates/metrics/src/table.rs", src, &no_cfg()).is_empty());
        assert!(!scan_source("crates/apps/src/query.rs", src, &no_cfg()).is_empty());
        assert!(!scan_source("crates/cli/src/chaos.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn print_ok_annotation_and_test_tail_are_exempt() {
        let src = include_str!("../fixtures/print_annotated.rs");
        let f = scan_source("crates/core/src/node.rs", src, &no_cfg());
        assert!(
            f.is_empty(),
            "annotated/test-tail prints must not fire: {f:?}"
        );
    }

    #[test]
    fn lossy_casts_fire_on_fixture() {
        let src = include_str!("../fixtures/lossy_cast.rs");
        let f = scan_source("crates/core/src/id.rs", src, &no_cfg());
        assert!(
            f.iter().any(|f| f.rule == "lossy-casts"),
            "expected a lossy-casts finding, got {f:?}"
        );
        // Widening to u128 and annotated sites are fine.
        assert_eq!(f.iter().filter(|f| f.rule == "lossy-casts").count(), 1);
    }

    #[test]
    fn fault_injection_fires_below_the_harness_layer() {
        let src = include_str!("../fixtures/fault_injection.rs");
        for path in [
            "crates/core/src/node.rs",
            "crates/des/src/engine.rs",
            "crates/trace/src/record.rs",
        ] {
            let f = scan_source(path, src, &no_cfg());
            assert!(
                f.iter().any(|f| f.rule == "fault-injection"),
                "expected a fault-injection finding at {path}, got {f:?}"
            );
        }
    }

    #[test]
    fn fault_injection_allowed_in_harness_layers() {
        let src = include_str!("../fixtures/fault_injection.rs");
        for path in [
            "crates/faults/src/model.rs",
            "crates/sim/src/full.rs",
            "crates/bench/tests/faults_overhead.rs",
            "crates/cli/src/chaos.rs",
        ] {
            assert!(
                scan_source(path, src, &no_cfg()).is_empty(),
                "harness layer {path} must be exempt"
            );
        }
    }

    #[test]
    fn fault_ok_annotation_and_test_tail_are_exempt() {
        let src = include_str!("../fixtures/fault_annotated.rs");
        let f = scan_source("crates/core/src/node.rs", src, &no_cfg());
        assert!(
            f.is_empty(),
            "annotated/test-tail sites must not fire: {f:?}"
        );
    }

    #[test]
    fn atomic_ordering_fires_on_every_variant() {
        let src = include_str!("../fixtures/atomic_ordering.rs");
        let f = scan_source("crates/des/src/parallel.rs", src, &no_cfg());
        assert_eq!(
            f.iter().filter(|f| f.rule == "atomic-ordering").count(),
            5,
            "Relaxed, Acquire, Release, AcqRel and SeqCst must all fire: {f:?}"
        );
    }

    #[test]
    fn atomic_ordering_scoped_to_the_parallel_engine() {
        let src = include_str!("../fixtures/atomic_ordering.rs");
        assert!(scan_source("crates/core/src/node.rs", src, &no_cfg()).is_empty());
        assert!(scan_source("crates/sim/src/full.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn ordering_annotation_and_test_tail_are_exempt() {
        let src = include_str!("../fixtures/atomic_annotated.rs");
        let f = scan_source("crates/des/src/parallel.rs", src, &no_cfg());
        assert!(
            f.is_empty(),
            "annotated/test-tail sites must not fire: {f:?}"
        );
    }

    #[test]
    fn ordering_and_ordered_annotations_do_not_cross_exempt() {
        // `audit: ordered` (hash-collections) must not satisfy the
        // atomic rule, nor the reverse — the tags are distinct words.
        let src = "// audit: ordered — lookups only\n\
                   flag.store(true, Ordering::Relaxed);\n";
        let f = scan_source("crates/des/src/parallel.rs", src, &no_cfg());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomic-ordering");
    }

    #[test]
    fn forbid_unsafe_fires_when_attribute_missing() {
        let f = forbid_unsafe_findings(&no_cfg(), |path| {
            if path == "crates/des/src/lib.rs" {
                Some("#![warn(missing_docs)]\n".to_string()) // attr absent
            } else {
                Some("#![forbid(unsafe_code)]\n".to_string())
            }
        });
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "forbid-unsafe");
        assert_eq!(f[0].path, "crates/des/src/lib.rs");
    }

    // ------------------------------------------------------------------
    // Scanner mechanics
    // ------------------------------------------------------------------

    #[test]
    fn comment_lines_and_doc_comments_never_fire() {
        let src = "/// HashMap is nondeterministic, so we use BTreeMap.\n\
                   // legacy: had a HashMap here\n";
        assert!(scan_source("crates/core/src/node.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn annotation_on_previous_line_counts() {
        let src = "// audit: ordered — lookups only\n\
                   use std::collections::HashMap;\n";
        assert!(scan_source("crates/sim/src/x.rs", src, &no_cfg()).is_empty());
    }

    #[test]
    fn annotation_anywhere_in_the_comment_block_above_counts() {
        let src = "// audit: ordering — Release pairs with the barrier's\n\
                   // Acquire load in `wait`; see the pairing argument there.\n\
                   flag.store(true, Ordering::Release);\n";
        assert!(scan_source("crates/des/src/parallel.rs", src, &no_cfg()).is_empty());
        // A blank line breaks the block: the tag no longer attaches.
        let src = "// audit: ordering — stale justification\n\
                   \n\
                   flag.store(true, Ordering::Release);\n";
        assert_eq!(
            scan_source("crates/des/src/parallel.rs", src, &no_cfg()).len(),
            1
        );
    }

    #[test]
    fn finding_display_is_greppable() {
        let f = Finding {
            rule: "wall-clock",
            path: "crates/sim/src/x.rs".into(),
            line: 7,
            text: "let t = Instant::now();".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/sim/src/x.rs:7: [wall-clock] let t = Instant::now();"
        );
    }

    // ------------------------------------------------------------------
    // audit.toml subset parser
    // ------------------------------------------------------------------

    #[test]
    fn parses_allowlists() {
        let cfg = AuditConfig::parse(
            "# comment\n\
             [rules.hash-collections]\n\
             allow = [\"crates/sim/src/gen.rs\", \"crates/des/src/tmp\"]\n\
             [rules.wall-clock]\n\
             allow = []\n",
        )
        .unwrap();
        assert!(cfg.allowed("hash-collections", "crates/sim/src/gen.rs"));
        assert!(cfg.allowed("hash-collections", "crates/des/src/tmp/x.rs"));
        assert!(!cfg.allowed("hash-collections", "crates/core/src/node.rs"));
        assert!(!cfg.allowed("wall-clock", "crates/sim/src/gen.rs"));
    }

    #[test]
    fn rejects_unknown_rules_and_keys() {
        assert!(AuditConfig::parse("[rules.no-such-rule]\n").is_err());
        assert!(AuditConfig::parse("[other.section]\n").is_err());
        assert!(AuditConfig::parse("[rules.wall-clock]\ndeny = []\n").is_err());
        assert!(AuditConfig::parse("allow = []\n").is_err());
    }

    #[test]
    fn allowlisted_file_is_exempt() {
        let cfg =
            AuditConfig::parse("[rules.wall-clock]\nallow = [\"crates/sim/src/t.rs\"]\n").unwrap();
        let src = "let t = Instant::now();\n";
        assert!(scan_source("crates/sim/src/t.rs", src, &cfg).is_empty());
        assert!(!scan_source("crates/sim/src/u.rs", src, &cfg).is_empty());
    }

    // ------------------------------------------------------------------
    // Allowlist drift
    // ------------------------------------------------------------------

    fn wall_clock_finding(path: &str) -> Finding {
        Finding {
            rule: "wall-clock",
            path: path.into(),
            line: 3,
            text: "let t = Instant::now();".into(),
        }
    }

    #[test]
    fn stale_allow_entry_is_drift() {
        let cfg = AuditConfig::parse("[rules.wall-clock]\nallow = [\"crates/sim/src/gone.rs\"]\n")
            .unwrap();
        let baseline = vec![wall_clock_finding("crates/sim/src/t.rs")];
        let f = allowlist_drift_findings(&cfg, &baseline);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "allowlist-drift");
        assert_eq!(f[0].path, "crates/sim/src/gone.rs");
    }

    #[test]
    fn live_allow_entry_is_not_drift() {
        // Prefix semantics: the entry exempts a directory that still
        // contains a finding of its rule.
        let cfg =
            AuditConfig::parse("[rules.wall-clock]\nallow = [\"crates/sim/src/\"]\n").unwrap();
        let baseline = vec![wall_clock_finding("crates/sim/src/t.rs")];
        assert!(allowlist_drift_findings(&cfg, &baseline).is_empty());
    }

    #[test]
    fn allow_entry_matching_only_another_rule_is_drift() {
        // The path exists in the baseline but under a different rule:
        // the wall-clock exemption still exempts nothing.
        let cfg = AuditConfig::parse("[rules.hash-collections]\nallow = [\"crates/sim/src/\"]\n")
            .unwrap();
        let baseline = vec![wall_clock_finding("crates/sim/src/t.rs")];
        let f = allowlist_drift_findings(&cfg, &baseline);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    // ------------------------------------------------------------------
    // The tree at HEAD is clean (the binary's exit-0 guarantee).
    // ------------------------------------------------------------------

    #[test]
    fn workspace_at_head_is_lint_clean() {
        let root = default_root();
        let cfg = AuditConfig::load(&root).unwrap();
        let findings = lint_workspace_with_drift(&root, &cfg).unwrap();
        assert!(
            findings.is_empty(),
            "workspace has lint findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
