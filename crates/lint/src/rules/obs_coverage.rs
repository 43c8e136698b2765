//! `obs-coverage`: public mutation entry points in the engine and the
//! two maintainers must feed the observability layer (DESIGN.md §8).
//! Snapshot freezes are entry points too: any `pub fn freeze*` in a
//! target file is checked *regardless of receiver* — a `&self` freeze
//! that skips the hub would silently lose the `snapshot_*` series. So
//! are report publishers (`pub fn publish_*`): their entire contract
//! is feeding the hub, so one that never touches it is a silent no-op
//! the caller cannot distinguish from working telemetry.
//! See the registry entry in [`super::RULES`].

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use crate::Finding;

/// Files the rule applies to (suffix match on the workspace-relative
/// path, so fixture mini-workspaces exercise the rule too).
const TARGET_SUFFIXES: &[&str] = &[
    "core/src/engine.rs",
    "core/src/oneindex/maintain.rs",
    "core/src/akindex/maintain.rs",
];

/// Identifiers that count as "touches the observability layer": the obs
/// hub itself, its emit/observe entry points, or the `UpdateStats`
/// phase counters the hub exports (maintainers report through those).
const OBS_TOKENS: &[&str] = &[
    "obs",
    "ObsHub",
    "emit",
    "observe_index_dispatch",
    "Recorder",
    "UpdateStats",
    "stats",
    "split_nanos",
    "merge_nanos",
    "queue_peak",
    "levels_touched",
];

pub fn run(f: &SourceFile, out: &mut Vec<Finding>) {
    if !TARGET_SUFFIXES.iter().any(|s| f.rel_path.ends_with(s)) {
        return;
    }
    let toks = &f.toks;
    let mut i = 0usize;
    while i < toks.len() {
        // `pub fn name` — but not `pub(crate) fn`: pub(crate) helpers are
        // internal plumbing, not entry points.
        if toks[i].is_ident("pub")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("fn"))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let name = toks[i + 2].text.clone();
            let line = toks[i + 2].line;
            if !f.is_test_line(line) {
                if let Some((body_open, body_close)) = fn_body_span(toks, i + 2) {
                    let sig = &toks[i + 3..body_open];
                    // Freeze entry points count whatever their receiver:
                    // a read-only `freeze` still owes a SnapshotFreeze
                    // emission or the snapshot_* series silently vanish.
                    // Publishers likewise: `publish_*` exists only to
                    // feed the hub, so an uninstrumented one is a
                    // silent no-op, the worst kind of telemetry hole.
                    let is_freeze = name.starts_with("freeze");
                    let is_publisher = name.starts_with("publish");
                    if takes_mut_self(sig) || is_freeze || is_publisher {
                        let covered = toks[i + 3..=body_close].iter().any(|t| {
                            t.kind == TokKind::Ident && OBS_TOKENS.contains(&t.text.as_str())
                        });
                        if !covered {
                            let what = if is_freeze {
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
                                    "{what} never touches the \
                                     observability layer (no obs hub call, no UpdateStats phase counters); \
                                     instrument it or waive naming the instrumented delegate"
                                ),
                            ));
                        }
                        i = body_close + 1;
                        continue;
                    }
                }
            }
        }
        i += 1;
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

    fn lint(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(
            "crates/core/src/engine.rs".into(),
            PathBuf::from("/x/crates/core/src/engine.rs"),
            src,
        );
        let mut out = Vec::new();
        run(&f, &mut out);
        out
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
        let src = "impl E { pub fn mutate(&mut self) { self.obs.emit(x()); self.g.poke(); } }";
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
        let src = "impl E { pub fn publish_reports(&mut self) { self.obs.emit(ev()); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn instrumented_freeze_is_clean() {
        let src = "impl E { pub fn freeze(&mut self) -> Vec<Snap> { let s = snap(); self.obs.emit(ev(&s)); s } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn shared_ref_and_private_fns_ignored() {
        let src = "impl E { pub fn size(&self) -> usize { self.n } fn helper(&mut self) { poke(); } pub(crate) fn h2(&mut self) { poke(); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn non_target_files_ignored() {
        let f = SourceFile::parse(
            "crates/graph/src/graph.rs".into(),
            PathBuf::from("/x/crates/graph/src/graph.rs"),
            "impl G { pub fn mutate(&mut self) { poke(); } }",
        );
        let mut out = Vec::new();
        run(&f, &mut out);
        assert!(out.is_empty());
    }
}
