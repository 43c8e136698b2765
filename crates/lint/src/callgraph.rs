//! Phase-1.5: a conservative, name-resolution-only call graph over the
//! [`crate::symbols::SymbolTable`].
//!
//! Resolution is deliberately approximate (DESIGN.md §9 documents the
//! false-negative classes):
//!
//! * a **method call** `recv.name(a, b)` resolves to every fn in the
//!   workspace named `name` that takes a receiver and has matching
//!   arity — no type inference, so two impls of the same trait method
//!   both become edges (conservative over-approximation);
//! * a **free/path call** `path::name(a)` resolves to every fn named
//!   `name` without a receiver and matching arity, plus
//!   receiver-taking fns of arity `n-1` (UFCS `Type::method(x)`);
//! * when arity matching eliminates every candidate (closure commas and
//!   turbofish noise can skew the count), resolution falls back to
//!   *all* same-name fns rather than silently dropping the edge;
//! * calls whose name matches **no** workspace fn are **opaque** —
//!   std/external callees assumed non-panicking. That is the big
//!   documented false-negative class: `Vec::push` reallocation aborts,
//!   `RefCell::borrow` panics, and arithmetic overflow are all
//!   invisible here.
//!
//! Macro invocations (`name!(…)`) are not calls; panic-family macros
//! are instead counted as in-body panic sites by the symbol pass.

use crate::symbols::{FnSym, PanicSite, Receiver, SymbolTable};
use std::collections::{BTreeMap, VecDeque};

/// One syntactic call site inside a fn body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written (last path segment for `a::b::c(…)`).
    pub name: String,
    /// 1-based line of the callee name in the caller's file.
    pub line: u32,
    /// Indices into the symbol table's fn list this call may reach.
    /// Empty iff `opaque`.
    pub targets: Vec<usize>,
    /// True when no workspace fn shares the callee's name.
    pub opaque: bool,
}

/// The call graph: per-fn call sites plus a deduplicated, sorted
/// adjacency list (deterministic BFS order).
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[i]` — call sites in `table.fns[i]`'s body, in token order.
    pub calls: Vec<Vec<CallSite>>,
    adj: Vec<Vec<usize>>,
}

/// One shortest path from an entry fn to a panicking fn.
#[derive(Clone, Debug)]
pub struct PanicChain {
    /// Fn indices from the entry (inclusive) to the fn owning the site.
    pub path: Vec<usize>,
    /// The first (lowest-line) live site in the terminal fn.
    pub site: PanicSite,
}

/// Identifiers that look like `name(` but never are calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "match", "return", "in", "loop", "fn", "let", "mut", "ref",
    "move", "as", "impl", "dyn", "where", "pub", "crate", "super", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "async", "await", "box", "break", "continue",
    "yield",
];

impl CallGraph {
    /// Extract call sites from every fn body and resolve them against
    /// the table. `sources` must be the slice the table was built from.
    pub fn build(table: &SymbolTable, sources: &[crate::source::SourceFile]) -> CallGraph {
        let mut calls = Vec::with_capacity(table.fns.len());
        let mut adj = Vec::with_capacity(table.fns.len());
        for f in &table.fns {
            let sites = extract_calls(f, sources, table);
            let mut edges: Vec<usize> = sites
                .iter()
                .flat_map(|c| c.targets.iter().copied())
                .collect();
            edges.sort_unstable();
            edges.dedup();
            calls.push(sites);
            adj.push(edges);
        }
        CallGraph { calls, adj }
    }

    /// Direct callees of fn `i`, sorted, deduplicated.
    pub fn callees(&self, i: usize) -> &[usize] {
        self.adj.get(i).map(Vec::as_slice).unwrap_or(&[])
    }

    /// BFS from `entry`: maps every reachable fn (including `entry`)
    /// to its BFS parent (`entry` maps to itself). Parents encode
    /// shortest call chains; iteration order is fn-index order, which
    /// is (file, line) order — deterministic.
    pub fn reachable(&self, entry: usize) -> BTreeMap<usize, usize> {
        let mut parents = BTreeMap::new();
        let mut queue = VecDeque::new();
        parents.insert(entry, entry);
        queue.push_back(entry);
        while let Some(u) = queue.pop_front() {
            for &v in self.callees(u) {
                if let std::collections::btree_map::Entry::Vacant(e) = parents.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        parents
    }

    /// BFS from `entry` to the nearest fn with a live panic site
    /// (possibly `entry` itself). Deterministic: adjacency is sorted,
    /// and ties break toward the earliest-discovered fn.
    pub fn shortest_panic_chain(&self, table: &SymbolTable, entry: usize) -> Option<PanicChain> {
        let n = table.fns.len();
        let mut parent: Vec<usize> = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[entry] = true;
        queue.push_back(entry);
        while let Some(u) = queue.pop_front() {
            if let Some(site) = first_site(&table.fns[u]) {
                let mut path = vec![u];
                let mut cur = u;
                while cur != entry {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(PanicChain { path, site });
            }
            for &v in self.callees(u) {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

fn first_site(f: &FnSym) -> Option<PanicSite> {
    f.sites.iter().min_by_key(|s| (s.line, s.kind)).cloned()
}

/// Walk one fn body for call sites.
fn extract_calls(
    f: &FnSym,
    sources: &[crate::source::SourceFile],
    table: &SymbolTable,
) -> Vec<CallSite> {
    let Some((open, close)) = f.body else {
        return Vec::new();
    };
    let src = &sources[f.file];
    let toks = &src.toks;
    let mut out = Vec::new();
    // Dedup repeated identical (name, method) calls per body to keep
    // site lists compact; adjacency dedups anyway, but store-discipline
    // iterates sites, so cap the noise. Key: (name, line).
    let mut seen: BTreeMap<(String, u32), ()> = BTreeMap::new();
    for i in open..=close {
        let t = &toks[i];
        if t.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|p| p.is_punct('(')) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        // `fn name(` is a declaration (nested fns re-parse separately).
        if prev.is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        if src.is_test_line(t.line) {
            continue;
        }
        let method = prev.is_some_and(|p| p.is_punct('.'));
        let nargs = count_args(toks, i + 1);
        let name = t.text.clone();
        if seen.insert((name.clone(), t.line), ()).is_some() {
            continue;
        }
        let (targets, opaque) = resolve(table, &name, method, nargs);
        out.push(CallSite {
            name,
            line: t.line,
            targets,
            opaque,
        });
    }
    out
}

/// Count arguments in the paren group opening at `open` (`toks[open]`
/// must be `(`): the non-empty top-level comma-separated items, so a
/// wrapped call's trailing comma adds none. Closure-param commas can
/// inflate the count; resolution's arity fallback absorbs that.
fn count_args(toks: &[crate::lexer::Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut items = 0usize;
    let mut in_item = false;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.is_punct(',') {
            in_item = false;
        } else if depth == 1 && !in_item {
            in_item = true;
            items += 1;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        }
        j += 1;
    }
    items
}

/// Conservative name+arity resolution. Returns (targets, opaque).
fn resolve(table: &SymbolTable, name: &str, method: bool, nargs: usize) -> (Vec<usize>, bool) {
    let cands = table.candidates(name);
    if cands.is_empty() {
        return (Vec::new(), true);
    }
    let exact: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&i| {
            let f = &table.fns[i];
            if method {
                f.receiver != Receiver::None && f.arity == nargs
            } else {
                (f.receiver == Receiver::None && f.arity == nargs)
                    || (f.receiver != Receiver::None && nargs > 0 && f.arity == nargs - 1)
            }
        })
        .collect();
    if exact.is_empty() {
        // Arity mismatch everywhere (closure commas, default-heavy
        // macros): keep every candidate rather than dropping the edge.
        (cands.to_vec(), false)
    } else {
        (exact, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn setup(src: &str) -> (Vec<SourceFile>, SymbolTable) {
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), PathBuf::from("/x.rs"), src);
        let sources = vec![f];
        let table = SymbolTable::build(&sources);
        (sources, table)
    }

    fn idx(t: &SymbolTable, name: &str) -> usize {
        let c = t.candidates(name);
        assert_eq!(c.len(), 1, "exactly one `{name}`");
        c[0]
    }

    #[test]
    fn direct_call_makes_an_edge() {
        let (s, t) = setup("fn a() { b(); } fn b() { x.unwrap(); }");
        let g = CallGraph::build(&t, &s);
        assert_eq!(g.callees(idx(&t, "a")), [idx(&t, "b")]);
        let chain = g.shortest_panic_chain(&t, idx(&t, "a")).expect("chain");
        assert_eq!(chain.path, [idx(&t, "a"), idx(&t, "b")]);
    }

    #[test]
    fn cycles_terminate_and_still_find_the_site() {
        let (s, t) = setup("fn a() { b(); } fn b() { a(); c(); } fn c() { v.unwrap(); }");
        let g = CallGraph::build(&t, &s);
        let chain = g.shortest_panic_chain(&t, idx(&t, "a")).expect("chain");
        assert_eq!(chain.path, [idx(&t, "a"), idx(&t, "b"), idx(&t, "c")]);
    }

    #[test]
    fn mutual_recursion_without_panics_is_none() {
        let (s, t) = setup("fn even(n: u32) { odd(n); } fn odd(n: u32) { even(n); }");
        let g = CallGraph::build(&t, &s);
        assert!(g.shortest_panic_chain(&t, idx(&t, "even")).is_none());
    }

    #[test]
    fn trait_methods_resolve_to_every_impl() {
        let (s, t) = setup(
            "fn drive(x: &X, y: &Y) { x.go(); }\n\
             impl Step for X { fn go(&self) {} }\n\
             impl Step for Y { fn go(&self) { q.unwrap(); } }",
        );
        let g = CallGraph::build(&t, &s);
        // `x.go()` cannot be typed; both impls become edges, so the
        // panicking one is (conservatively) reachable.
        assert_eq!(g.callees(idx(&t, "drive")).len(), 2);
        assert!(g.shortest_panic_chain(&t, idx(&t, "drive")).is_some());
    }

    #[test]
    fn opaque_calls_are_recorded_but_make_no_edges() {
        let (s, t) = setup("fn a() { std::mem::swap(p, q); }");
        let g = CallGraph::build(&t, &s);
        let a = idx(&t, "a");
        assert!(g.callees(a).is_empty());
        assert_eq!(g.calls[a].len(), 1);
        assert!(g.calls[a][0].opaque);
        assert_eq!(g.calls[a][0].name, "swap");
        assert!(g.shortest_panic_chain(&t, a).is_none());
    }

    #[test]
    fn arity_filters_same_name_candidates() {
        let (s, t) = setup(
            "fn caller() { helper(1); }\n\
             impl A { fn helper(&self) { x.unwrap(); } }\n\
             fn helper(n: u32) {}",
        );
        let g = CallGraph::build(&t, &s);
        // Free call with 1 arg: matches the free fn (arity 1) and the
        // UFCS form (receiver + arity 0) — the method stays reachable.
        assert_eq!(g.callees(idx(&t, "caller")).len(), 2);
    }

    #[test]
    fn arity_mismatch_falls_back_to_all_candidates() {
        let (s, t) = setup("fn caller() { f(1, 2, 3); } fn f(a: u32) { x.unwrap(); }");
        let g = CallGraph::build(&t, &s);
        assert_eq!(g.callees(idx(&t, "caller")), [idx(&t, "f")]);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let (s, t) = setup("fn a() { println!(\"x\"); vec![1]; } fn println() { x.unwrap(); }");
        let g = CallGraph::build(&t, &s);
        assert!(g.callees(idx(&t, "a")).is_empty());
    }

    #[test]
    fn entry_with_own_site_is_a_length_one_chain() {
        let (s, t) = setup("fn a() { v.unwrap(); }");
        let g = CallGraph::build(&t, &s);
        let chain = g.shortest_panic_chain(&t, idx(&t, "a")).expect("chain");
        assert_eq!(chain.path.len(), 1);
    }

    #[test]
    fn shortest_path_wins_over_longer_ones() {
        let (s, t) = setup(
            "fn a() { long1(); short(); }\n\
             fn long1() { long2(); } fn long2() { boom(); }\n\
             fn short() { boom(); } fn boom() { x.unwrap(); }",
        );
        let g = CallGraph::build(&t, &s);
        let chain = g.shortest_panic_chain(&t, idx(&t, "a")).expect("chain");
        assert_eq!(
            chain.path,
            [idx(&t, "a"), idx(&t, "short"), idx(&t, "boom")]
        );
    }
}
