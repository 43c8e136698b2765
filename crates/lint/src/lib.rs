//! # xsi-lint — project-specific static analysis for the xsi workspace
//!
//! A dependency-free (hand-rolled lexer, no `syn`, no rustc plugin)
//! static-analysis pass that walks every `crates/*/src/**/*.rs` file and
//! enforces the invariant catalog of DESIGN.md §9:
//!
//! * **`hash-iter`** — iteration over `HashMap`/`HashSet` whose order can
//!   leak into index state, serialized output, or traces (the exact bug
//!   class behind the PR 2 `SimpleAkIndex` block-assignment
//!   nondeterminism);
//! * **`panic-unwrap` / `panic-expect` / `slice-index`** — panic-freedom
//!   debt in non-test library code, frozen by the ratchet baseline
//!   (`lint-baseline.json`) so existing call sites are tolerated but any
//!   *new* one fails CI;
//! * **`obs-coverage`** — every `pub fn` entry point in the engine,
//!   the refinement kernel and the two maintainers must open a causal
//!   span (DESIGN.md §8); in the engine, reaching the obs hub or
//!   reporting the `UpdateStats` that label its dispatch span also
//!   counts;
//! * **`forbid-unsafe` / `hot-assert` / `todo` / `bad-waiver`** —
//!   hygiene: crate roots carry `#![forbid(unsafe_code)]`, hot paths use
//!   `debug_assert!` rather than release-mode `assert!`, deferred-work
//!   markers are inventoried, and malformed waivers are findings.
//!
//! Findings are suppressed three ways, in order: an explicit
//! `// xsi-lint: allow(<rule>, <reason>)` waiver on (or immediately
//! above) the offending line; rule-specific safe patterns (e.g. a sort
//! directly downstream of a hash iteration); or — for the panic-freedom
//! rules only — an entry in the committed ratchet baseline.
//!
//! The binary (`cargo run -p xsi-lint`) renders findings diff-style and
//! exits non-zero when any fatal finding survives; `--json` emits a
//! machine-readable report, `--update-baseline` re-freezes the ratchet,
//! and `--explain <rule>` prints a rule's full documentation.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod callgraph;
pub mod lexer;
pub mod render;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod symbols;

use crate::baseline::Baseline;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// How bad a finding is by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational inventory (deferred-work markers); never fails the run.
    Note,
    /// Fails only under `--deny-all` (the CI mode).
    Warn,
    /// Fails every run.
    Deny,
}

/// Why a finding did not count against the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suppression {
    /// An explicit `xsi-lint: allow(...)` waiver covers the line.
    Waived,
    /// The ratchet baseline froze this (file, rule) occurrence.
    Baselined,
}

/// One lint hit.
#[derive(Clone, Debug)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// The offending source line, for diff-style rendering.
    pub excerpt: String,
    /// `None` when the finding is live; otherwise why it was suppressed.
    pub suppressed: Option<Suppression>,
    /// Ratchet grouping key override. `None` groups by `path` (the
    /// per-file rules); `panic-reach` sets `<file>#<Type::fn>` so each
    /// entry point ratchets independently.
    pub ratchet_key: Option<String>,
}

/// Static description of one rule, for `--explain` and the registry.
pub struct RuleInfo {
    pub name: &'static str,
    pub severity: Severity,
    /// May occurrences of this rule be frozen in the ratchet baseline?
    pub baselineable: bool,
    /// May a `// xsi-lint: allow(...)` comment suppress this rule?
    pub waivable: bool,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form documentation: the bug class targeted, the incident
    /// that motivated it, and how to fix or waive a finding.
    pub explain: &'static str,
}

/// Input to a lint run.
pub struct LintConfig {
    /// Workspace root; `crates/*/src/**/*.rs` is walked below it.
    pub root: PathBuf,
    /// Ratchet baseline (already loaded); `None` means empty.
    pub baseline: Option<Baseline>,
    /// Promote `Warn` findings to fatal.
    pub deny_all: bool,
}

/// Result of a lint run, before rendering.
pub struct Report {
    /// Every finding, including suppressed ones (render decides what to
    /// show; JSON output carries all of them).
    pub findings: Vec<Finding>,
    /// Files scanned (workspace-relative), in walk order.
    pub files: Vec<String>,
    /// Per-(file, rule) live counts for baselineable rules — exactly
    /// what `--update-baseline` writes.
    pub ratchet_counts: BTreeMap<String, BTreeMap<String, usize>>,
    /// (file, rule) pairs whose live count came in *under* baseline —
    /// improvements worth re-freezing.
    pub improvements: Vec<(String, String, usize, usize)>,
}

impl Report {
    /// Findings that actually fail the run under the given mode.
    pub fn fatal(&self, deny_all: bool) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| {
            f.suppressed.is_none()
                && match f.severity {
                    Severity::Deny => true,
                    Severity::Warn => deny_all,
                    Severity::Note => false,
                }
        })
    }

    pub fn count(&self, s: Option<Suppression>) -> usize {
        self.findings.iter().filter(|f| f.suppressed == s).count()
    }
}

/// Walk `crates/*/src/**/*.rs` under `root`, sorted for determinism.
pub fn discover_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in std::fs::read_dir(&crates_dir)? {
        let path = entry?.path();
        if path.is_dir() {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();
    let mut files = Vec::new();
    for c in crate_dirs {
        let src = c.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}

/// Run every rule over every discovered file and fold in waivers and
/// the ratchet baseline.
pub fn run(config: &LintConfig) -> std::io::Result<Report> {
    let paths = discover_files(&config.root)?;
    let mut sources = Vec::with_capacity(paths.len());
    for p in &paths {
        let text = std::fs::read_to_string(p)?;
        let rel = rel_path(&config.root, p);
        sources.push(SourceFile::parse(rel, p.clone(), &text));
    }
    Ok(run_on_sources(config, &sources))
}

/// Testable core: lint already-parsed sources.
pub fn run_on_sources(config: &LintConfig, sources: &[SourceFile]) -> Report {
    let mut findings: Vec<Finding> = Vec::new();
    for f in sources {
        rules::run_all(f, &mut findings);
    }

    // Phase 2: interprocedural rules over the one-pass workspace
    // symbol table and its conservative call graph.
    let table = symbols::SymbolTable::build(sources);
    let graph = callgraph::CallGraph::build(&table, sources);
    rules::run_interproc(sources, &table, &graph, &mut findings);

    // 1. Waivers: any waivable finding on a waived line is suppressed.
    // Track which waiver fired — unused waivers are themselves findings.
    let mut used_waivers: BTreeSet<(usize, usize)> = BTreeSet::new();
    for fi in &mut findings {
        let Some((si, src)) = sources
            .iter()
            .enumerate()
            .find(|(_, s)| s.rel_path == fi.path)
        else {
            continue;
        };
        if rules::info(fi.rule).is_some_and(|r| r.waivable) {
            if let Some(wi) = src.waiver_covering(fi.rule, fi.line) {
                fi.suppressed = Some(Suppression::Waived);
                used_waivers.insert((si, wi));
            }
        }
    }

    // 1b. Dead waivers: a well-formed waiver that suppressed nothing
    // (and exempted no panic site from reachability) is a stale safety
    // claim — flag it so suppression debt can only shrink. Waivers
    // naming unknown rules are `bad-waiver`'s job.
    for (si, src) in sources.iter().enumerate() {
        for (wi, w) in src.waivers.iter().enumerate() {
            if rules::info(&w.rule).is_none() || used_waivers.contains(&(si, wi)) {
                continue;
            }
            if exempts_panic_macro(src, w) {
                continue;
            }
            findings.push(rules::finding(
                src,
                "dead-waiver",
                w.line,
                format!(
                    "waiver for `{}` suppressed zero findings (covers lines {}\u{2013}{}); \
                     the hazard it argued safe is gone — delete the waiver",
                    w.rule, w.applies_from, w.applies_to
                ),
            ));
        }
    }

    // 2. Ratchet baseline: for baselineable rules, freeze up to the
    // baselined count per (file, rule), preferring the earliest lines
    // (stable under appends).
    let empty = Baseline::default();
    let base = config.baseline.as_ref().unwrap_or(&empty);
    let mut ratchet_counts: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    let mut improvements = Vec::new();
    {
        // Group indices of live, baselineable findings by (key, rule),
        // where key is the file path unless the rule set a ratchet key
        // (panic-reach ratchets per `<file>#<entry fn>`).
        let mut groups: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, fi) in findings.iter().enumerate() {
            if fi.suppressed.is_some() {
                continue;
            }
            let baselineable = rules::info(fi.rule)
                .map(|r| r.baselineable)
                .unwrap_or(false);
            if baselineable {
                let key = fi.ratchet_key.clone().unwrap_or_else(|| fi.path.clone());
                groups
                    .entry((key, fi.rule.to_string()))
                    .or_default()
                    .push(i);
            }
        }
        for ((path, rule), idxs) in groups {
            let budget = base.get(&path, &rule);
            let live = idxs.len();
            ratchet_counts
                .entry(path.clone())
                .or_default()
                .insert(rule.clone(), live);
            for (n, &i) in idxs.iter().enumerate() {
                if n < budget {
                    findings[i].suppressed = Some(Suppression::Baselined);
                } else {
                    findings[i].message = format!(
                        "{} ({} found vs {} frozen in baseline)",
                        findings[i].message, live, budget
                    );
                }
            }
            if live < budget {
                improvements.push((path, rule, live, budget));
            }
        }
        // Baseline entries for files/rules that no longer fire at all are
        // improvements (ratchet down to zero) — and, because a leftover
        // budget would quietly absorb future regressions, they are also
        // `stale-baseline` findings until `--update-baseline` prunes them.
        for (path, rules_map) in base.entries() {
            for (rule, &budget) in rules_map {
                let live = ratchet_counts
                    .get(path)
                    .and_then(|m| m.get(rule))
                    .copied()
                    .unwrap_or(0);
                if live == 0 && budget > 0 {
                    improvements.push((path.clone(), rule.clone(), 0, budget));
                    // For panic-reach keys (`file#entry`), anchor the
                    // finding at the file part.
                    let file_part = path.split('#').next().unwrap_or(path).to_string();
                    let gone = !sources.iter().any(|s| s.rel_path == file_part);
                    findings.push(Finding {
                        rule: "stale-baseline",
                        severity: rules::info("stale-baseline")
                            .map(|r| r.severity)
                            .unwrap_or(Severity::Deny),
                        path: file_part.clone(),
                        line: 0,
                        message: if gone {
                            format!(
                                "baseline entry `{path}` / `{rule}` (budget {budget}) refers to a \
                                 file no longer scanned; run --update-baseline to prune it"
                            )
                        } else {
                            format!(
                                "baseline entry `{path}` / `{rule}` froze {budget} finding(s) but 0 \
                                 remain live; run --update-baseline to ratchet the budget away"
                            )
                        },
                        excerpt: String::new(),
                        suppressed: None,
                        ratchet_key: None,
                    });
                }
            }
        }
        improvements.sort();
        improvements.dedup();
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Report {
        findings,
        files: sources.iter().map(|s| s.rel_path.clone()).collect(),
        ratchet_counts,
        improvements,
    }
}

/// Does a `panic-reach` waiver exempt an explicit panic-macro site
/// from reachability? Such a waiver never suppresses a finding at its
/// own line (the finding sits at the entry point), so the dead-waiver
/// audit must recognize this second way of being load-bearing. The
/// three ratcheted panic kinds need no such carve-out: their per-file
/// rules always produce a (suppressed) finding at the waived site.
fn exempts_panic_macro(src: &SourceFile, w: &source::Waiver) -> bool {
    if w.rule != "panic-reach" {
        return false;
    }
    src.toks.windows(2).any(|p| {
        p[0].kind == lexer::TokKind::Ident
            && symbols::PANIC_MACROS.contains(&p[0].text.as_str())
            && p[1].is_punct('!')
            && w.applies_from <= p[0].line
            && p[0].line <= w.applies_to
    })
}

/// Workspace-relative `/`-separated path for reports and baselines.
pub fn rel_path(root: &Path, p: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    let s = rel.to_string_lossy();
    if std::path::MAIN_SEPARATOR == '/' {
        s.into_owned()
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}
