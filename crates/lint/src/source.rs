//! Per-file source model: token stream + comments + waivers + test
//! regions, shared by every rule.

use crate::lexer::{self, Comment, Tok};
use std::path::PathBuf;

/// A parsed `// xsi-lint: allow(<rule>, <reason>)` waiver.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Rule the waiver names (not validated here; unknown names are
    /// reported by the `bad-waiver` meta-rule).
    pub rule: String,
    /// Mandatory free-text justification.
    pub reason: String,
    /// Line the waiver comment sits on.
    pub line: u32,
    /// First line the waiver applies to (the comment's own line, or the
    /// next line when the comment stands alone).
    pub applies_from: u32,
    /// Last line the waiver applies to.
    pub applies_to: u32,
}

/// A waiver-looking comment that failed to parse (missing reason,
/// malformed syntax). Surfaced as findings so typos cannot silently
/// disable a lint.
#[derive(Clone, Debug)]
pub struct BadWaiver {
    pub line: u32,
    pub message: String,
}

/// One lexed and pre-analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root (used in reports and baselines;
    /// always `/`-separated).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Raw source lines (for excerpts in reports).
    pub lines: Vec<String>,
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
    pub waivers: Vec<Waiver>,
    pub bad_waivers: Vec<BadWaiver>,
    /// `test_lines[i]` is true when 1-based line `i+1` is inside a
    /// `#[cfg(test)]` module or a `#[test]` function.
    test_lines: Vec<bool>,
}

impl SourceFile {
    pub fn parse(rel_path: String, abs_path: PathBuf, src: &str) -> SourceFile {
        let (toks, comments) = lexer::lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let (waivers, bad_waivers) = parse_waivers(&comments);
        let test_lines = mark_test_lines(&toks, lines.len());
        SourceFile {
            rel_path,
            abs_path,
            lines,
            toks,
            comments,
            waivers,
            bad_waivers,
            test_lines,
        }
    }

    /// Is the given 1-based line inside test-only code?
    pub fn is_test_line(&self, line: u32) -> bool {
        let idx = line.saturating_sub(1) as usize;
        self.test_lines.get(idx).copied().unwrap_or(false)
    }

    /// Does a waiver for `rule` cover `line`?
    pub fn waived(&self, rule: &str, line: u32) -> bool {
        self.waiver_covering(rule, line).is_some()
    }

    /// Index (into `self.waivers`) of the first waiver for `rule`
    /// covering `line` — identity matters for dead-waiver auditing.
    pub fn waiver_covering(&self, rule: &str, line: u32) -> Option<usize> {
        self.waivers
            .iter()
            .position(|w| w.rule == rule && w.applies_from <= line && line <= w.applies_to)
    }

    /// The 1-based line's text, for report excerpts.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(String::as_str)
            .unwrap_or("")
    }
}

/// Scan comments for `xsi-lint: allow(rule, reason)` markers.
fn parse_waivers(comments: &[Comment]) -> (Vec<Waiver>, Vec<BadWaiver>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        if c.doc {
            // Doc comments describe the waiver syntax; only regular
            // comments enact it.
            continue;
        }
        let Some(at) = c.text.find("xsi-lint:") else {
            continue;
        };
        let rest = c.text[at + "xsi-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            bad.push(BadWaiver {
                line: c.line,
                message: format!(
                    "unrecognized xsi-lint directive (expected `xsi-lint: allow(<rule>, <reason>)`): `{}`",
                    c.text
                ),
            });
            continue;
        };
        let rest = rest.trim_start();
        let (Some(open), Some(close)) = (rest.find('('), rest.rfind(')')) else {
            bad.push(BadWaiver {
                line: c.line,
                message: "malformed waiver: missing parentheses".to_string(),
            });
            continue;
        };
        let inner = &rest[open + 1..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        if rule.is_empty() || reason.is_empty() {
            bad.push(BadWaiver {
                line: c.line,
                message: format!(
                    "waiver for `{}` needs a reason: `xsi-lint: allow({}, <why this is safe>)`",
                    if rule.is_empty() { "<rule>" } else { rule },
                    if rule.is_empty() { "<rule>" } else { rule },
                ),
            });
            continue;
        }
        // An own-line comment waives the following line (and any lines the
        // comment spans); an end-of-line comment waives its own line.
        let mut applies_to = if c.own_line {
            c.end_line + 1
        } else {
            c.end_line
        };
        // Own-line waivers chain through any own-line comments that
        // follow (further waivers, doc comments) to the first code
        // line, so waivers for different rules can stack above one
        // declaration.
        if c.own_line {
            while let Some(next) = comments.iter().find(|n| n.own_line && n.line == applies_to) {
                applies_to = next.end_line + 1;
            }
        }
        waivers.push(Waiver {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: c.line,
            applies_from: c.line,
            applies_to,
        });
    }
    (waivers, bad)
}

/// Mark lines covered by `#[cfg(test)] mod … { … }` blocks and
/// `#[test] fn … { … }` items as test-only.
fn mark_test_lines(toks: &[Tok], n_lines: usize) -> Vec<bool> {
    let mut marks = vec![false; n_lines];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(kind) = test_attr_at(toks, i) {
            // Find the start of the following item's body and mark
            // through its matching close brace.
            let attr_end = skip_attr(toks, i);
            if let Some((open, close)) = body_span(toks, attr_end, kind) {
                let from = toks[i].line.saturating_sub(1) as usize;
                let to = toks[close].line as usize; // inclusive, 1-based
                for m in marks.iter_mut().take(to.min(n_lines)).skip(from) {
                    *m = true;
                }
                i = close + 1;
                let _ = open;
                continue;
            }
        }
        i += 1;
    }
    marks
}

#[derive(Clone, Copy, PartialEq)]
enum TestAttrKind {
    /// `#[cfg(test)]` — the next `mod`/`fn` item is test-only.
    CfgTest,
    /// `#[test]` — the next `fn` is test-only.
    Test,
}

/// If `toks[i..]` starts a test attribute, say which kind.
fn test_attr_at(toks: &[Tok], i: usize) -> Option<TestAttrKind> {
    if !toks.get(i)?.is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    let t2 = toks.get(i + 2)?;
    if t2.is_ident("test") && toks.get(i + 3)?.is_punct(']') {
        return Some(TestAttrKind::Test);
    }
    if t2.is_ident("cfg")
        && toks.get(i + 3)?.is_punct('(')
        && toks.get(i + 4)?.is_ident("test")
        && toks.get(i + 5)?.is_punct(')')
        && toks.get(i + 6)?.is_punct(']')
    {
        return Some(TestAttrKind::CfgTest);
    }
    None
}

/// Given `toks[i]` == `#` starting an attribute, return the index just
/// past the attribute's closing `]`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 2; // past `#[`
    let mut depth = 1usize;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct('[') {
            depth += 1;
        } else if toks[j].is_punct(']') {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// From `start` (just past the test attribute), skip further attributes
/// and find the item body's brace span. Returns (open, close) token
/// indices of the `{`/`}` pair.
fn body_span(toks: &[Tok], mut start: usize, kind: TestAttrKind) -> Option<(usize, usize)> {
    // Skip any further attributes (e.g. `#[test] #[ignore] fn …`).
    while start < toks.len() && toks[start].is_punct('#') {
        if toks.get(start + 1).is_some_and(|t| t.is_punct('[')) {
            start = skip_attr(toks, start);
        } else {
            break;
        }
    }
    // For `#[test]` the item must be a fn; for `#[cfg(test)]` accept
    // mod/fn/impl/struct/… — anything brace-delimited. Walk to the first
    // `{` at angle-bracket-insensitive depth 0, skipping a possible
    // `mod name;` (out-of-line test module: nothing to mark here).
    let mut j = start;
    let mut paren = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if kind == TestAttrKind::CfgTest && t.is_punct(';') && paren == 0 {
            return None; // `#[cfg(test)] mod tests;` — body is elsewhere
        }
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('{') && paren == 0 {
            // Found the body; match braces.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("demo.rs".into(), PathBuf::from("/demo.rs"), src)
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let f = file(
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n",
        );
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_fn_is_marked() {
        let f = file("#[test]\nfn t() {\n    boom();\n}\nfn real() {}\n");
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn out_of_line_test_mod_is_ignored() {
        let f = file("#[cfg(test)]\nmod tests;\nfn real() {}\n");
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn waiver_same_line_and_next_line() {
        let f = file(
            "let a = m.iter(); // xsi-lint: allow(hash-iter, order irrelevant)\n\
             // xsi-lint: allow(panic-unwrap, startup only)\n\
             let b = x.unwrap();\n\
             let c = y.unwrap();\n",
        );
        assert!(f.waived("hash-iter", 1));
        assert!(f.waived("panic-unwrap", 3));
        assert!(!f.waived("panic-unwrap", 4));
        assert!(!f.waived("hash-iter", 3));
    }

    #[test]
    fn stacked_waivers_chain_to_the_first_code_line() {
        // Two waivers (and a doc comment) above one declaration: every
        // own-line waiver must reach the code line below the block.
        let f = file(
            "// xsi-lint: allow(panic-reach, callers validate the node)\n\
             // xsi-lint: allow(obs-coverage, caller opens the span)\n\
             /// Registers a node.\n\
             pub fn on_node_added() {}\n\
             fn next() {}\n",
        );
        assert!(f.waived("panic-reach", 4));
        assert!(f.waived("obs-coverage", 4));
        assert!(!f.waived("panic-reach", 5));
        assert!(!f.waived("obs-coverage", 5));
    }

    #[test]
    fn waiver_without_reason_is_bad() {
        let f = file("// xsi-lint: allow(hash-iter)\nlet a = 1;\n");
        assert!(f.waivers.is_empty());
        assert_eq!(f.bad_waivers.len(), 1);
        assert!(f.bad_waivers[0].message.contains("needs a reason"));
    }

    #[test]
    fn unknown_directive_is_bad() {
        let f = file("// xsi-lint: disable-everything\nlet a = 1;\n");
        assert_eq!(f.bad_waivers.len(), 1);
    }
}
