//! Phase-1 workspace symbol table: a hand-rolled item parser (no
//! `syn`, tier-1 stays offline) that walks every file's token stream
//! once and records each `fn` item — name, visibility, receiver,
//! arity, enclosing `impl`/`mod` context, and body token span — plus
//! the live panic sites inside each body.
//!
//! The table is deliberately *name-resolution free*: two `fn new`s in
//! different impls are two entries sharing a name, and it is the call
//! graph ([`crate::callgraph`]) that decides — conservatively, by
//! name + arity — which entries a call site may reach. That keeps the
//! parser robust in exactly the way the token-level lexer is: macro
//! bodies, cfg-gated items, and generics-heavy signatures degrade into
//! *extra* conservatism (an unparsed item becomes an opaque callee),
//! never into a parse failure.

use crate::lexer::{Tok, TokKind};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Item visibility, as far as the call-graph rules care.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` at all.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in …)` — restricted.
    Restricted,
    /// Plain `pub`.
    Public,
}

/// How a fn takes `self`, if at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Receiver {
    /// Free function or associated fn without `self`.
    None,
    /// `self` / `mut self` by value.
    Value,
    /// `&self` (possibly with a lifetime).
    Ref,
    /// `&mut self` (possibly with a lifetime).
    RefMut,
}

/// What kind of panic a site is — mirrors the per-file ratchet rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect("…")` without an `invariant:`/`checked:` prefix.
    Expect,
    /// Panicking `container[index]`.
    SliceIndex,
    /// Explicit `panic!` / `todo!` / `unimplemented!` macro.
    PanicMacro,
}

impl PanicKind {
    /// The per-file rule whose waiver exempts a site of this kind.
    pub fn waiver_rule(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "panic-unwrap",
            PanicKind::Expect => "panic-expect",
            PanicKind::SliceIndex => "slice-index",
            // No dedicated per-file rule; panic-reach waivers on the
            // line exempt explicit panics.
            PanicKind::PanicMacro => "panic-reach",
        }
    }

    /// Short human label for chain messages.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "`.unwrap()`",
            PanicKind::Expect => "uncontracted `.expect(…)`",
            PanicKind::SliceIndex => "panicking `[…]` index",
            PanicKind::PanicMacro => "explicit panic macro",
        }
    }
}

/// One live panic site inside a fn body.
#[derive(Clone, Debug)]
pub struct PanicSite {
    pub kind: PanicKind,
    /// 1-based line in the owning file.
    pub line: u32,
}

/// One parsed `fn` item.
#[derive(Clone, Debug)]
pub struct FnSym {
    /// Index into the source list the table was built from.
    pub file: usize,
    /// Workspace-relative path of that file (denormalized for messages).
    pub path: String,
    /// Bare fn name.
    pub name: String,
    /// `Type::name` when inside `impl … Type { … }`, else the bare name.
    pub qual_name: String,
    /// 1-based line of the fn name.
    pub line: u32,
    pub vis: Visibility,
    pub receiver: Receiver,
    /// Number of parameters *excluding* any `self` receiver.
    pub arity: usize,
    /// Trait name when declared inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// Token span (`{`, `}`) of the body in the owning file's token
    /// stream; `None` for body-less trait declarations.
    pub body: Option<(usize, usize)>,
    /// Token index of the fn name (signature tokens follow until the
    /// body open).
    pub name_tok: usize,
    /// Live panic sites in the body (test lines and per-rule-waived
    /// lines already excluded; contract `expect` messages exempt).
    pub sites: Vec<PanicSite>,
}

/// The phase-1 output: every fn in the workspace, plus a name index.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub fns: Vec<FnSym>,
    /// Bare name → indexes into `fns`, in (file, line) order.
    by_name: BTreeMap<String, Vec<usize>>,
}

impl SymbolTable {
    /// Walk every source once and build the table. `sources` must be
    /// the same slice later handed to the call-graph builder: `FnSym::
    /// file` indexes into it.
    pub fn build(sources: &[SourceFile]) -> SymbolTable {
        let mut fns = Vec::new();
        for (fi, src) in sources.iter().enumerate() {
            parse_file(fi, src, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        SymbolTable { fns, by_name }
    }

    /// All fns sharing a bare name, in (file, line) order.
    pub fn candidates(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Is any fn in the table called `name`?
    pub fn knows(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }
}

/// Keywords that can sit between a visibility and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

/// Parse one file's items into `out`.
fn parse_file(fi: usize, src: &SourceFile, out: &mut Vec<FnSym>) {
    let toks = &src.toks;
    // Stack of enclosing brace contexts: for each open `{` we remember
    // the impl type name active inside it (if it opened an impl block)
    // or carry the parent's.
    let mut impl_stack: Vec<Option<ImplCtx>> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            let inherited = impl_stack.last().cloned().flatten();
            impl_stack.push(inherited);
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            impl_stack.pop();
            i += 1;
            continue;
        }
        if t.is_ident("impl") {
            // Parse forward to the block `{`, extracting the self type
            // (the last path segment before `{`, after any `for`).
            if let Some((ctx, open)) = parse_impl_header(toks, i) {
                impl_stack.push(Some(ctx));
                i = open + 1;
                continue;
            }
        }
        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let ctx = impl_stack.last().cloned().flatten();
            if let Some((sym, next)) = parse_fn(fi, src, i, ctx.as_ref()) {
                out.push(sym);
                // `next` points just past the signature; bodies are
                // re-entered so nested fns and closures still parse.
                i = next;
                continue;
            }
        }
        i += 1;
    }
}

#[derive(Clone, Debug)]
struct ImplCtx {
    self_type: String,
    trait_name: Option<String>,
}

/// From `toks[start] == impl`, find the self type and the block `{`.
fn parse_impl_header(toks: &[Tok], start: usize) -> Option<(ImplCtx, usize)> {
    let mut j = start + 1;
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut before_for: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` cannot appear in an impl header before the block.
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') {
                let self_type = last_ident?;
                return Some((
                    ImplCtx {
                        self_type,
                        trait_name: before_for,
                    },
                    j,
                ));
            }
            if t.is_punct(';') {
                return None; // `impl Trait for Type;` — nothing to enter
            }
            if t.is_ident("for") {
                before_for = last_ident.take();
            } else if t.kind == TokKind::Ident && t.text != "where" && t.text != "dyn" {
                last_ident = Some(t.text.clone());
            } else if t.is_punct('(') {
                // `impl Trait for (A, B)` tuples etc.: skip the group.
                let mut depth = 1usize;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct('(') {
                        depth += 1;
                    } else if toks[j].is_punct(')') {
                        depth -= 1;
                    }
                    j += 1;
                }
                continue;
            }
        }
        j += 1;
    }
    None
}

/// Parse one `fn` starting at the `fn` keyword. Returns the symbol and
/// the token index to resume scanning from (just past the parameter
/// list, so bodies are re-scanned for nested items).
fn parse_fn(
    fi: usize,
    src: &SourceFile,
    fn_idx: usize,
    ctx: Option<&ImplCtx>,
) -> Option<(FnSym, usize)> {
    let toks = &src.toks;
    let name_tok = fn_idx + 1;
    let name = toks[name_tok].text.clone();
    let line = toks[name_tok].line;

    // Visibility: scan backwards over qualifiers to a possible `pub`.
    let mut k = fn_idx;
    while k > 0
        && toks[k - 1].kind == TokKind::Ident
        && FN_QUALIFIERS.contains(&toks[k - 1].text.as_str())
    {
        k -= 1;
    }
    // `extern "C" fn` leaves a string literal before `fn`.
    while k > 0 && toks[k - 1].kind == TokKind::Str {
        k -= 1;
        while k > 0
            && toks[k - 1].kind == TokKind::Ident
            && FN_QUALIFIERS.contains(&toks[k - 1].text.as_str())
        {
            k -= 1;
        }
    }
    let vis = if k > 0 && toks[k - 1].is_punct(')') {
        // Possible `pub(crate)` / `pub(super)` / `pub(in path)`.
        let mut d = k - 1;
        let mut depth = 1usize;
        while d > 0 && depth > 0 {
            d -= 1;
            if toks[d].is_punct(')') {
                depth += 1;
            } else if toks[d].is_punct('(') {
                depth -= 1;
            }
        }
        if d > 0 && toks[d - 1].is_ident("pub") {
            Visibility::Restricted
        } else {
            Visibility::Private
        }
    } else if k > 0 && toks[k - 1].is_ident("pub") {
        Visibility::Public
    } else {
        Visibility::Private
    };

    // Skip generics between name and `(`.
    let mut j = name_tok + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 1i32;
        j += 1;
        while j < toks.len() && angle > 0 {
            if toks[j].is_punct('<') {
                angle += 1;
            } else if toks[j].is_punct('>') {
                angle -= 1;
            }
            j += 1;
        }
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // Walk the parameter list: count the non-empty top-level
    // comma-separated items (a wrapped signature's trailing comma adds
    // none), detect `self`.
    let mut depth = 0i32; // (), [], {} nesting
    let mut angle = 0i32; // <> nesting (arrows handled below)
    let mut receiver = Receiver::None;
    let mut params = 0usize;
    let mut in_param = false;
    let mut first_param_toks: Vec<usize> = Vec::new();
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && angle == 0 && t.is_punct(',') {
            in_param = false;
        } else if depth == 1 && !t.is_punct(',') {
            if !in_param {
                in_param = true;
                params += 1;
            }
            if params == 1 && first_param_toks.len() < 4 {
                first_param_toks.push(j);
            }
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if j > 0 && toks[j - 1].is_punct('-') {
                // `->` arrow inside an fn-type parameter: not a close.
            } else if angle > 0 {
                angle -= 1;
            }
        }
        j += 1;
    }
    let params_close = j;

    // Classify the first parameter as a receiver.
    if let Some(&first) = first_param_toks.first() {
        let f0 = &toks[first];
        if f0.is_ident("self")
            || (f0.is_ident("mut") && toks.get(first + 1).is_some_and(|t| t.is_ident("self")))
        {
            receiver = Receiver::Value;
        } else if f0.is_punct('&') {
            let mut r = first + 1;
            if toks.get(r).is_some_and(|t| t.kind == TokKind::Lifetime) {
                r += 1;
            }
            if toks.get(r).is_some_and(|t| t.is_ident("mut"))
                && toks.get(r + 1).is_some_and(|t| t.is_ident("self"))
            {
                receiver = Receiver::RefMut;
            } else if toks.get(r).is_some_and(|t| t.is_ident("self")) {
                receiver = Receiver::Ref;
            }
        }
    }
    let arity = if receiver == Receiver::None {
        params
    } else {
        params.saturating_sub(1)
    };

    // Find the body span (or a `;` for trait declarations).
    let body = crate::rules::obs_coverage::fn_body_span(toks, name_tok);
    let sites = body
        .map(|(open, close)| collect_panic_sites(src, &toks[open..=close]))
        .unwrap_or_default();

    let qual_name = match ctx {
        Some(c) => format!("{}::{}", c.self_type, name),
        None => name.clone(),
    };
    Some((
        FnSym {
            file: fi,
            path: src.rel_path.clone(),
            name,
            qual_name,
            line,
            vis,
            receiver,
            arity,
            trait_impl: ctx.and_then(|c| c.trait_name.clone()),
            body,
            name_tok,
            sites,
        },
        params_close + 1,
    ))
}

/// Contract prefixes that make an `expect` message acceptable — kept in
/// sync with [`crate::rules::panics`].
const EXPECT_PREFIXES: &[&str] = &["invariant:", "checked:"];

/// Keywords that may precede `[` without it being an indexing
/// expression — kept in sync with [`crate::rules::panics`].
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "const", "static", "move", "as",
    "dyn", "impl", "for", "where", "box", "break", "yield",
];

/// Panic macros counted as sites for reachability (beyond the three
/// ratcheted per-file classes).
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

/// Scan a body token slice for live panic sites: non-test,
/// non-contract, and not exempted by a waiver for the corresponding
/// per-file rule (a waiver argues the site safe; arguing it removes it
/// from the reachability debt, unlike the baseline, which merely
/// freezes it).
fn collect_panic_sites(src: &SourceFile, body: &[Tok]) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    let mut push = |kind: PanicKind, line: u32| {
        if src.is_test_line(line) {
            return;
        }
        if src.waived(kind.waiver_rule(), line) {
            return;
        }
        sites.push(PanicSite { kind, line });
    };
    for i in 0..body.len() {
        let t = &body[i];
        if t.is_punct('.')
            && body.get(i + 1).is_some_and(|m| m.is_ident("unwrap"))
            && body.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            push(PanicKind::Unwrap, body[i + 1].line);
        } else if t.is_punct('.')
            && body.get(i + 1).is_some_and(|m| m.is_ident("expect"))
            && body.get(i + 2).is_some_and(|p| p.is_punct('('))
        {
            if let Some(msg) = body.get(i + 3).filter(|m| m.kind == TokKind::Str) {
                if !EXPECT_PREFIXES.iter().any(|p| msg.text.starts_with(p)) {
                    push(PanicKind::Expect, body[i + 1].line);
                }
            }
        } else if t.is_punct('[') && i > 0 {
            let prev = &body[i - 1];
            let indexable = match prev.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if indexable {
                push(PanicKind::SliceIndex, t.line);
            }
        } else if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && body.get(i + 1).is_some_and(|p| p.is_punct('!'))
        {
            push(PanicKind::PanicMacro, t.line);
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn table(src: &str) -> SymbolTable {
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), PathBuf::from("/x.rs"), src);
        SymbolTable::build(std::slice::from_ref(&f))
    }

    fn sym<'a>(t: &'a SymbolTable, name: &str) -> &'a FnSym {
        let c = t.candidates(name);
        assert_eq!(c.len(), 1, "exactly one `{name}`");
        &t.fns[c[0]]
    }

    #[test]
    fn free_fn_visibility_receiver_arity() {
        let t = table("pub fn a(x: u32, y: u32) {} fn b() {} pub(crate) fn c(z: u64) {}");
        assert_eq!(sym(&t, "a").vis, Visibility::Public);
        assert_eq!(sym(&t, "a").arity, 2);
        assert_eq!(sym(&t, "a").receiver, Receiver::None);
        assert_eq!(sym(&t, "b").vis, Visibility::Private);
        assert_eq!(sym(&t, "b").arity, 0);
        assert_eq!(sym(&t, "c").vis, Visibility::Restricted);
        assert_eq!(sym(&t, "c").arity, 1);
    }

    #[test]
    fn impl_methods_get_qualified_names_and_receivers() {
        let t = table(
            "struct S; impl S { pub fn m(&mut self, a: u32) -> u32 { a } \
             fn r(&self) {} fn v(self) {} pub fn assoc(n: u32) -> S { S } }",
        );
        let m = sym(&t, "m");
        assert_eq!(m.qual_name, "S::m");
        assert_eq!(m.receiver, Receiver::RefMut);
        assert_eq!(m.arity, 1);
        assert_eq!(sym(&t, "r").receiver, Receiver::Ref);
        assert_eq!(sym(&t, "v").receiver, Receiver::Value);
        let a = sym(&t, "assoc");
        assert_eq!(a.receiver, Receiver::None);
        assert_eq!(a.arity, 1);
    }

    #[test]
    fn trait_impls_record_the_trait() {
        let t = table(
            "impl Display for Wrapper { fn fmt(&self, f: &mut Formatter) -> Result { ok() } }",
        );
        let f = sym(&t, "fmt");
        assert_eq!(f.qual_name, "Wrapper::fmt");
        assert_eq!(f.trait_impl.as_deref(), Some("Display"));
        assert_eq!(f.arity, 1);
    }

    #[test]
    fn generic_params_do_not_confuse_arity() {
        let t = table("fn g<K: Ord, V>(m: BTreeMap<K, V>, d: V) -> V { pick(m, d) }");
        assert_eq!(sym(&t, "g").arity, 2);
    }

    #[test]
    fn bodyless_trait_decls_have_no_body() {
        let t = table("trait T { fn decl(&self, x: u32); fn with_default(&self) -> u32 { 1 } }");
        assert!(sym(&t, "decl").body.is_none());
        assert!(sym(&t, "with_default").body.is_some());
    }

    #[test]
    fn nested_fns_are_found() {
        let t = table("fn outer() { fn inner(q: u8) {} inner(3); }");
        assert_eq!(sym(&t, "inner").arity, 1);
        assert!(sym(&t, "outer").body.is_some());
    }

    #[test]
    fn panic_sites_collected_with_exemptions() {
        let t = table(
            "fn f(v: &[u32], o: Option<u32>) -> u32 {\n\
             let a = o.unwrap();\n\
             let b = o.expect(\"boom\");\n\
             let c = o.expect(\"invariant: checked by caller\");\n\
             let d = v[0];\n\
             let e = v[1]; // xsi-lint: allow(slice-index, len checked above)\n\
             if a > b { panic!(\"no\"); }\n\
             a + b + c + d + e\n}",
        );
        let f = sym(&t, "f");
        let kinds: Vec<PanicKind> = f.sites.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            [
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::SliceIndex,
                PanicKind::PanicMacro
            ],
            "{:?}",
            f.sites
        );
    }

    #[test]
    fn test_fns_have_no_live_sites() {
        let t = table("#[test]\nfn t() { x().unwrap(); }\nfn live() { y().unwrap(); }");
        assert!(sym(&t, "t").sites.is_empty());
        assert_eq!(sym(&t, "live").sites.len(), 1);
    }

    #[test]
    fn multiple_same_name_fns_are_all_candidates() {
        let t = table("impl A { fn new() -> A { A } } impl B { fn new() -> B { B } }");
        assert_eq!(t.candidates("new").len(), 2);
        assert!(t.knows("new"));
        assert!(!t.knows("absent"));
    }
}
