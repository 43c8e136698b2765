//! `obs-coverage`: public entry points of the engine, the refinement
//! kernel and the two maintainers must be instrumented (DESIGN.md §8).
//! The causal span is the observability layer's one primitive, so
//! "instrumented" means the function opens a span. In the engine it may
//! instead run under the per-call recording, hand records to the hub,
//! or report the `UpdateStats` that label its `IndexDispatch` span; a
//! kernel driver or maintainer must open the span itself (or waive
//! naming the delegate that does), since phase time is the `Split` /
//! `Merge` span duration. Snapshot freezes and report publishers
//! (`pub fn freeze*`, `pub fn publish*`) in the engine and maintainers
//! are entry points *regardless of receiver*: a `&self` freeze that
//! skips the spans silently loses the `snapshot_*` series, and a
//! publisher exists only to feed the hub.
//! See the registry entry in [`super::RULES`].

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::Finding;

/// Files the rule applies to (suffix match on the workspace-relative
/// path, so fixture mini-workspaces exercise the rule too).
const KERNEL_SUFFIX: &str = "core/src/kernel.rs";
const ENGINE_SUFFIX: &str = "core/src/engine.rs";
const MAINTAINER_SUFFIXES: &[&str] = &[
    "core/src/oneindex/maintain.rs",
    "core/src/akindex/maintain.rs",
];

/// Identifiers that count as instrumentation everywhere: the span
/// vocabulary (a bare `span` binder counts — the kernel names its
/// aggregate guards that way).
const SPAN_TOKENS: &[&str] = &["SpanGuard", "enter", "enter_family", "SpanKind", "span"];

/// In the engine these count too: the per-call recording (`Recording`,
/// the `traced` wrapper), the hub, and the `UpdateStats` that become the
/// label of the op's `IndexDispatch` span. Not in the kernel or the
/// maintainers, where nearly every fn threads `UpdateStats`: there they
/// prove nothing about the `Split`/`Merge` spans.
const ENGINE_TOKENS: &[&str] = &[
    "Recording",
    "traced",
    "obs",
    "ObsHub",
    "UpdateStats",
    "stats",
    "queue_peak",
    "levels_touched",
];

pub fn run(f: &SourceFile, out: &mut Vec<Finding>) {
    let is_kernel = f.rel_path.ends_with(KERNEL_SUFFIX);
    let is_engine = f.rel_path.ends_with(ENGINE_SUFFIX);
    let is_maintainer = MAINTAINER_SUFFIXES.iter().any(|s| f.rel_path.ends_with(s));
    if !is_kernel && !is_engine && !is_maintainer {
        return;
    }
    let toks = &f.toks;
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        // `pub fn name` — but not `pub(crate) fn`: pub(crate) helpers are
        // internal plumbing, not entry points.
        let name_tok = toks.get(i + 2).filter(|n| {
            t.is_ident("pub")
                && toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))
                && n.kind == TokKind::Ident
        });
        let Some(name_tok) = name_tok else {
            i += 1;
            continue;
        };
        let (name, line) = (name_tok.text.clone(), name_tok.line);
        let Some((body_open, body_close)) = fn_body_span(toks, i + 2) else {
            i += 1;
            continue;
        };
        let sig = toks.get(i + 3..body_open).unwrap_or_default();
        let is_freeze = !is_kernel && name.starts_with("freeze");
        let is_publisher = !is_kernel && name.starts_with("publish");
        // Kernel: the driver entry points are exactly the pub fns
        // threading `UpdateStats` (process_compounds, refine_to_fixpoint,
        // merge_fold); queue plumbing is exempt. Elsewhere: every pub
        // `&mut self` fn, plus freezes and publishers.
        let is_entry = if is_kernel {
            sig.iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "UpdateStats")
        } else {
            takes_mut_self(sig) || is_freeze || is_publisher
        };
        if !is_entry || f.is_test_line(line) {
            i += 1;
            continue;
        }
        let covered = toks
            .get(i + 3..=body_close)
            .unwrap_or_default()
            .iter()
            .any(|t| {
                t.kind == TokKind::Ident
                    && (SPAN_TOKENS.contains(&t.text.as_str())
                        || (is_engine && ENGINE_TOKENS.contains(&t.text.as_str())))
            });
        if !covered {
            let what = if is_kernel {
                format!("kernel driver `pub fn {name}(…)`")
            } else if is_freeze {
                format!("snapshot entry point `pub fn {name}(…)`")
            } else if is_publisher {
                format!("report publisher `pub fn {name}(…)`")
            } else {
                format!("mutation entry point `pub fn {name}(&mut self, …)`")
            };
            out.push(super::finding(
                f,
                "obs-coverage",
                line,
                format!(
                    "{what} is uninstrumented (opens no span{}); \
                     instrument it or waive naming the instrumented delegate",
                    if is_engine {
                        ", never reaches the obs hub, reports no UpdateStats"
                    } else {
                        ""
                    }
                ),
            ));
        }
        i = body_close + 1;
    }
}

/// From the token index of a fn's name, find its body `{`/`}` token
/// span. Returns `None` for body-less fns (trait decls).
pub(crate) fn fn_body_span(toks: &[Tok], name_idx: usize) -> Option<(usize, usize)> {
    let mut j = name_idx + 1;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if paren == 0 && t.is_punct(';') {
            return None;
        } else if paren == 0 && t.is_punct('{') {
            let mut depth = 1usize;
            let mut k = j + 1;
            while k < toks.len() && depth > 0 {
                if toks[k].is_punct('{') {
                    depth += 1;
                } else if toks[k].is_punct('}') {
                    depth -= 1;
                }
                k += 1;
            }
            return Some((j, k - 1));
        }
        j += 1;
    }
    None
}

/// Does the signature contain `&mut self` (possibly `&'a mut self`)?
pub(crate) fn takes_mut_self(sig: &[Tok]) -> bool {
    for w in 0..sig.len() {
        if sig[w].is_punct('&') {
            let mut k = w + 1;
            if sig.get(k).is_some_and(|t| t.kind == TokKind::Lifetime) {
                k += 1;
            }
            if sig.get(k).is_some_and(|t| t.is_ident("mut"))
                && sig.get(k + 1).is_some_and(|t| t.is_ident("self"))
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint_at(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel.to_string(), PathBuf::from(format!("/x/{rel}")), src);
        let mut out = Vec::new();
        run(&f, &mut out);
        out
    }

    fn lint(src: &str) -> Vec<Finding> {
        lint_at("crates/core/src/engine.rs", src)
    }

    #[test]
    fn uninstrumented_mut_self_pub_fn_flagged() {
        let src = "impl E { pub fn mutate(&mut self, n: u32) { self.g.poke(n); } }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("mutate"));
    }

    #[test]
    fn stats_reference_counts_as_coverage() {
        let src = "impl E { pub fn mutate(&mut self) -> UpdateStats { self.go() } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn obs_emit_counts_as_coverage() {
        let src = "impl E { pub fn mutate(&mut self) { self.traced(|e| e.g.poke()) } }";
        assert!(lint(src).is_empty());
        let src = "impl E { pub fn mutate(&mut self) { self.obs.record(&r); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn uninstrumented_freeze_flagged_even_on_shared_receiver() {
        let src = "impl E { pub fn freeze(&self) -> Vec<Snap> { self.entries.iter().map(snap).collect() } }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("snapshot entry point"));
        assert!(hits[0].message.contains("freeze"));
    }

    #[test]
    fn uninstrumented_publisher_flagged_even_on_shared_receiver() {
        let src = "impl E { pub fn publish_reports(&self) -> usize { self.entries.len() } }";
        let hits = lint(src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("report publisher"));
        assert!(hits[0].message.contains("publish_reports"));
    }

    #[test]
    fn instrumented_publisher_is_clean() {
        let src = "impl E { pub fn publish_reports(&mut self) { self.obs.metrics_mut(); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn instrumented_freeze_is_clean() {
        let src = "impl E { pub fn freeze(&mut self) -> Vec<Snap> { let sp = SpanGuard::enter(SpanKind::Freeze); snap() } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn shared_ref_and_private_fns_ignored() {
        let src = "impl E { pub fn size(&self) -> usize { self.n } fn helper(&mut self) { poke(); } pub(crate) fn h2(&mut self) { poke(); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn maintainer_shared_ref_and_private_fns_ignored() {
        let src = "impl M { pub fn size(&self) -> usize { self.n } \
                   fn helper(&mut self) { poke(); } \
                   pub(crate) fn h2(&mut self) { poke(); } }";
        assert!(lint_at("crates/core/src/oneindex/maintain.rs", src).is_empty());
    }

    #[test]
    fn non_target_files_ignored() {
        let src = "impl G { pub fn mutate(&mut self) { poke(); } }";
        assert!(lint_at("crates/graph/src/graph.rs", src).is_empty());
    }

    #[test]
    fn non_target_core_files_ignored() {
        // Only the engine, the kernel and the two maintainers are
        // targets: the entry point a maintainer must instrument passes
        // unseen elsewhere in core.
        let src = "impl P { pub fn mutate(&mut self) { poke(); } }";
        assert_eq!(lint_at("crates/core/src/akindex/maintain.rs", src).len(), 1);
        assert!(lint_at("crates/core/src/partition.rs", src).is_empty());
    }

    #[test]
    fn kernel_driver_without_span_flagged() {
        let src =
            "pub fn process<D: SplitDriver>(d: &mut D, stats: &mut UpdateStats) { d.scan(); }";
        let hits = lint_at("crates/core/src/kernel.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("kernel driver `pub fn process"));
    }

    #[test]
    fn kernel_driver_with_span_guard_is_clean() {
        let src = "pub fn process<D: SplitDriver>(d: &mut D, stats: &mut UpdateStats) { \
                   let sp = SpanGuard::enter(SpanKind::KernelScan); d.scan(); drop(sp); }";
        assert!(lint_at("crates/core/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn kernel_queue_plumbing_is_exempt() {
        let src =
            "impl<K> CompoundQueue<K> { pub fn push(&mut self, c: Vec<K>) { self.q.push(c); } }";
        assert!(lint_at("crates/core/src/kernel.rs", src).is_empty());
    }

    #[test]
    fn maintainer_mut_self_without_span_flagged() {
        let src = "impl M { pub fn apply(&mut self, g: &mut Graph) { self.go(g); } }";
        let hits = lint_at("crates/core/src/oneindex/maintain.rs", src);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn maintainer_reporting_stats_without_span_flagged() {
        // The stats label the engine's IndexDispatch span, but the
        // maintainer's own Split/Merge spans are what phase time is.
        let src = "impl M { pub fn apply(&mut self, g: &Graph) -> UpdateStats { self.go(g) } }";
        let hits = lint_at("crates/core/src/oneindex/maintain.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("opens no span"));
        let src = "impl M { pub fn apply(&mut self, g: &Graph) { self.obs.record(&r); } }";
        assert_eq!(lint_at("crates/core/src/akindex/maintain.rs", src).len(), 1);
    }

    #[test]
    fn maintainer_with_enter_family_is_clean() {
        let src = "impl M { pub fn apply(&mut self, g: &mut Graph) { \
                   let sp = SpanGuard::enter_family(SpanKind::Split, self.family); self.go(g); drop(sp); } }";
        assert!(lint_at("crates/core/src/akindex/maintain.rs", src).is_empty());
    }
}
