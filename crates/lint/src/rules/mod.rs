//! The SA-* rule implementations plus shared token-level helpers.

pub mod sa01;
pub mod sa03;
pub mod sa04;
pub mod sa05;
pub mod sa06;

use crate::lexer::{matching_close, Tok};
use std::collections::BTreeSet;

/// True when `s` looks like a stable invariant/rule code (`SCH-01`,
/// `TEL-04`, …): an upper-case family of 2–4 letters, a dash, two
/// digits.
pub fn is_code(s: &str) -> bool {
    let Some((fam, num)) = s.split_once('-') else {
        return false;
    };
    (2..=4).contains(&fam.len())
        && fam.chars().all(|c| c.is_ascii_uppercase())
        && num.len() == 2
        && num.chars().all(|c| c.is_ascii_digit())
}

/// Extracts every literal code *and* every range shorthand
/// (`SCH-01..06` means `SCH-01` through `SCH-06`) mentioned in free
/// text. Doc comments and markdown both use the shorthand, so coverage
/// checks must expand it.
pub fn codes_in_text(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let bytes: Vec<char> = text.chars().collect();
    let n = bytes.len();
    let mut i = 0;
    while i < n {
        if !bytes[i].is_ascii_uppercase() {
            i += 1;
            continue;
        }
        // A family run must not continue a larger identifier.
        if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && bytes[i].is_ascii_uppercase() {
            i += 1;
        }
        let fam_len = i - start;
        if !(2..=4).contains(&fam_len) || i >= n || bytes[i] != '-' {
            continue;
        }
        let fam: String = bytes[start..i].iter().collect();
        i += 1;
        let num_start = i;
        while i < n && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i - num_start != 2 {
            continue;
        }
        let lo: u32 = bytes[num_start..i]
            .iter()
            .collect::<String>()
            .parse()
            .unwrap_or(0);
        // Optional `..NN` range suffix.
        let mut hi = lo;
        if i + 1 < n && bytes[i] == '.' && bytes[i + 1] == '.' {
            let mut j = i + 2;
            let hs = j;
            while j < n && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j - hs == 2 {
                hi = bytes[hs..j]
                    .iter()
                    .collect::<String>()
                    .parse()
                    .unwrap_or(lo);
                i = j;
            }
        }
        for k in lo..=hi.max(lo) {
            out.insert(format!("{fam}-{k:02}"));
        }
    }
    out
}

/// A `#[...]` or `#![...]` attribute occurrence.
pub struct Attr {
    /// Token index of the `#`.
    pub start: usize,
    /// Token index of the closing `]`.
    pub end: usize,
    /// Line of the `#`.
    pub line: u32,
    /// Line of the closing `]`.
    pub end_line: u32,
    /// Whether the attribute is inner (`#![...]`).
    pub inner: bool,
}

/// Finds every attribute in a token stream.
pub fn attrs(toks: &[Tok]) -> Vec<Attr> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            let inner = toks.get(j).is_some_and(|t| t.is_punct('!'));
            if inner {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                if let Some(end) = matching_close(toks, j) {
                    out.push(Attr {
                        start: i,
                        end,
                        line: toks[i].line,
                        end_line: toks[end].line,
                        inner,
                    });
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// One function body: the token range of its braces and the innermost
/// nesting relationship (bodies are reported innermost-last).
pub struct FnBody {
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (the signature's start, so
    /// parameter declarations can be scoped to their function).
    pub start: usize,
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the closing `}`.
    pub close: usize,
}

/// Finds every `fn` body in a token stream. Nested functions produce
/// nested ranges; callers wanting the *innermost* body containing an
/// index should pick the smallest covering range.
pub fn fn_bodies(toks: &[Tok]) -> Vec<FnBody> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            let line = toks[i].line;
            // Scan forward to the body's `{`, skipping the signature.
            // A signature contains no top-level braces; generic bounds
            // and where clauses keep to `<>`/`()` nesting. Stop at `;`
            // (trait method declaration, no body).
            let mut j = i + 1;
            let mut found = None;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    found = Some(j);
                    break;
                }
                if toks[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = found {
                if let Some(close) = matching_close(toks, open) {
                    out.push(FnBody {
                        line,
                        start: i,
                        open,
                        close,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn code_ranges_expand() {
        let codes =
            codes_in_text("checks SCH-01..04 and MOV-02; not X-1 or LOWER-aa or FOO_BAR-01");
        assert!(codes.contains("SCH-01"));
        assert!(codes.contains("SCH-04"));
        assert!(codes.contains("MOV-02"));
        assert!(!codes.contains("SCH-05"));
        assert_eq!(codes.len(), 5);
    }

    #[test]
    fn embedded_identifiers_do_not_match() {
        // `BAR-01` inside `FOO_BAR-01` must not count: it continues an
        // identifier.
        assert!(codes_in_text("FOO_BAR-01").is_empty());
        assert_eq!(codes_in_text("(TEL-04)").len(), 1);
    }

    #[test]
    fn nested_fn_bodies_are_both_found() {
        let l = lex("fn outer() { fn inner() { x(); } y(); }");
        let bodies = fn_bodies(&l.toks);
        assert_eq!(bodies.len(), 2);
        assert!(bodies[0].open < bodies[1].open && bodies[1].close < bodies[0].close);
    }

    #[test]
    fn attrs_found() {
        let l = lex("#![allow(dead_code)]\n#[allow(clippy::unwrap_used)]\nfn f() {}");
        let a = attrs(&l.toks);
        assert_eq!(a.len(), 2);
        assert!(a[0].inner);
        assert!(!a[1].inner);
    }
}
