//! A hand-rolled token-level Rust lexer: just enough syntax awareness for
//! the lint rules to reason about real code without a full parser.
//!
//! The lexer understands the things that break naive `grep`-style
//! scanning:
//!
//! - **strings** — plain, raw (`r#"..."#` at any hash depth), byte, and
//!   raw-byte literals, with escape sequences; their contents never
//!   produce tokens;
//! - **comments** — line and (nested) block comments; contents are kept
//!   aside per line so rules can find `// relaxed-ok:` / `// lint:allow`
//!   escape hatches;
//! - **char vs lifetime** — `'a'` is a char literal, `'a` a lifetime;
//! - **attributes & test regions** — `#[test]` / `#[cfg(test)]` items are
//!   resolved to line ranges so rules can skip test-only code.
//!
//! Tokens carry their 1-based line for findings and for the
//! statement-window escape-hatch search ([`Lexed::window_has_comment`]).

use std::collections::HashMap;

/// What a token is; the lexer does not classify keywords (rules match on
/// ident text instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Punctuation, one char per token (`::` arrives as two `:`).
    Punct,
    /// Numeric literal.
    Num,
    /// String literal of any flavor (content dropped).
    Str,
    /// Char literal (content dropped).
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Source text (for `Str`, the *unquoted, unescaped-as-written* body —
    /// good enough for metric-name matching, which uses plain literals).
    pub text: String,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

/// The lexer's output for one file.
#[derive(Debug)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// Comment text per 1-based line (all comments touching the line,
    /// concatenated). Block comments contribute to every line they span.
    pub comments: HashMap<u32, String>,
    /// `test_lines[line as usize]` (1-based, index 0 unused) — whether the
    /// line sits inside a `#[test]` fn or `#[cfg(test)]` item.
    pub test_lines: Vec<bool>,
}

impl Lexed {
    /// Whether `line` (1-based) is inside test-only code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// The 1-based line on which the statement containing token `idx`
    /// starts: the line of the first token after the closest preceding
    /// `;`, `{` or `}`. Escape-hatch comments are honored anywhere from
    /// one line above that through the flagged line, which covers
    /// rustfmt-wrapped multi-line chains.
    fn statement_start_line(&self, idx: usize) -> u32 {
        let mut start = self.tokens[idx].line;
        for i in (0..idx).rev() {
            let t = &self.tokens[i];
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
                break;
            }
            start = t.line;
        }
        start
    }

    /// Whether any comment in the statement window of token `idx`
    /// contains `needle`. The window runs from the statement's first line
    /// through the token's line, extended upward over the contiguous
    /// block of comment lines directly above the statement — so a
    /// justification wrapped across several `//` lines still counts.
    pub fn window_has_comment(&self, idx: usize, needle: &str) -> bool {
        let end = self.tokens[idx].line;
        let mut start = self.statement_start_line(idx);
        while start > 1 && self.comments.contains_key(&(start - 1)) {
            start -= 1;
        }
        (start..=end).any(|line| {
            self.comments
                .get(&line)
                .is_some_and(|text| text.contains(needle))
        })
    }
}

/// Lex `source` into tokens + comments + test-region map.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut comments: HashMap<u32, String> = HashMap::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    let mut note_comment = |line: u32, text: &str| {
        let entry = comments.entry(line).or_default();
        if !entry.is_empty() {
            entry.push(' ');
        }
        entry.push_str(text);
    };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                note_comment(line, &source[start..i]);
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1usize;
                let mut seg_start = i;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if bytes[i] == b'\n' {
                        note_comment(line, source[seg_start..i].trim_end());
                        line += 1;
                        i += 1;
                        seg_start = i;
                    } else {
                        i += 1;
                    }
                }
                note_comment(line, source[seg_start..i].trim_end());
            }
            '"' => {
                let (body, end, newlines) = scan_string(source, i);
                tokens.push(Token {
                    kind: TokKind::Str,
                    text: body,
                    line,
                });
                line += newlines;
                i = end;
            }
            'r' | 'b' if starts_string(bytes, i) => {
                // Raw / byte / raw-byte string: skip the prefix, then any
                // `#`s, then scan to the matching close quote.
                let (body, end, newlines) = scan_prefixed_string(source, i);
                tokens.push(Token {
                    kind: TokKind::Str,
                    text: body,
                    line,
                });
                line += newlines;
                i = end;
            }
            '\'' => {
                // Lifetime if `'` + ident-start and not closed by another
                // `'` right after one ident char (i.e. `'a'` is a char).
                let next = bytes.get(i + 1).copied().map(|b| b as char);
                let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                    && bytes.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    let start = i + 1;
                    i += 1;
                    while i < bytes.len() && is_ident_char(bytes[i]) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: source[start..i].to_string(),
                        line,
                    });
                } else {
                    // Char literal: skip escapes until the closing quote.
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => break, // malformed; resync at newline
                            _ => i += 1,
                        }
                    }
                    tokens.push(Token {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (is_ident_char(bytes[i]) || bytes[i] == b'.') {
                    // Stop a float scan at `..` (range) or `.ident` (call).
                    if bytes[i] == b'.'
                        && (bytes.get(i + 1) == Some(&b'.')
                            || bytes.get(i + 1).is_some_and(|&b| b.is_ascii_alphabetic()))
                    {
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Num,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Ident,
                    text: source[start..i].to_string(),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += c.len_utf8();
            }
        }
    }

    let total_lines = line as usize + 1;
    let test_lines = mark_test_regions(&tokens, total_lines);
    Lexed {
        tokens,
        comments,
        test_lines,
    }
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `r`/`b` at `i` start a (raw/byte) string literal?
fn starts_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i + 1;
    if bytes.get(i) == Some(&b'b') && bytes.get(j) == Some(&b'r') {
        j += 1;
    }
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
        && !(bytes.get(i) == Some(&b'b') && bytes.get(i + 1) == Some(&b'\''))
}

/// Scan a plain `"..."` string starting at the opening quote. Returns
/// (body, index-after-close, newline count).
fn scan_string(source: &str, start: usize) -> (String, usize, u32) {
    let bytes = source.as_bytes();
    let mut i = start + 1;
    let body_start = i;
    let mut newlines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                return (source[body_start..i].to_string(), i + 1, newlines);
            }
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (source[body_start..i].to_string(), i, newlines)
}

/// Scan an `r"..."` / `b"..."` / `r#"..."#` / `br##"..."##` literal
/// starting at the prefix. Returns (body, index-after-close, newlines).
fn scan_prefixed_string(source: &str, start: usize) -> (String, usize, u32) {
    let bytes = source.as_bytes();
    let mut i = start;
    let mut raw = false;
    while matches!(bytes.get(i), Some(b'r') | Some(b'b')) {
        raw |= bytes[i] == b'r';
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    let body_start = i;
    let mut newlines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if !raw => i += 2,
            b'"' => {
                let close = &bytes[i + 1..];
                if close.len() >= hashes && close[..hashes].iter().all(|&b| b == b'#') {
                    return (source[body_start..i].to_string(), i + 1 + hashes, newlines);
                }
                i += 1;
            }
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (source[body_start..i].to_string(), i, newlines)
}

/// Resolve `#[test]` / `#[cfg(test)]` attributes to the line span of the
/// item they annotate.
fn mark_test_regions(tokens: &[Token], total_lines: usize) -> Vec<bool> {
    let mut test = vec![false; total_lines + 1];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Punct
            && tokens[i].text == "#"
            && tokens.get(i + 1).is_some_and(|t| t.text == "[")
        {
            // Collect the attribute's tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut attr: Vec<&str> = Vec::new();
            while j < tokens.len() && depth > 0 {
                match tokens[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    t if depth == 1 => attr.push(t),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = attr == ["test"] || attr == ["cfg", "(", "test", ")"];
            if is_test_attr {
                let attr_line = tokens[i].line;
                // Find the annotated item's body: the first `{` after any
                // further attributes; a `;` first means a bodyless item.
                let mut k = j;
                let mut end_line = attr_line;
                while k < tokens.len() {
                    match tokens[k].text.as_str() {
                        "#" if tokens.get(k + 1).is_some_and(|t| t.text == "[") => {
                            // skip stacked attribute
                            let mut d = 1usize;
                            k += 2;
                            while k < tokens.len() && d > 0 {
                                match tokens[k].text.as_str() {
                                    "[" => d += 1,
                                    "]" => d -= 1,
                                    _ => {}
                                }
                                k += 1;
                            }
                        }
                        ";" => {
                            end_line = tokens[k].line;
                            break;
                        }
                        "{" => {
                            let mut d = 1usize;
                            k += 1;
                            while k < tokens.len() && d > 0 {
                                match tokens[k].text.as_str() {
                                    "{" => d += 1,
                                    "}" => d -= 1,
                                    _ => {}
                                }
                                k += 1;
                            }
                            // k is just past the closing `}`.
                            end_line = tokens[k.saturating_sub(1)].line;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                for l in attr_line..=end_line {
                    if (l as usize) < test.len() {
                        test[l as usize] = true;
                    }
                }
                i = k.max(j);
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_produce_no_code_tokens() {
        let lexed = lex(r##"let s = "Ordering::Relaxed"; // Ordering::Relaxed
let r = r#"Instant::now()"#; /* unwrap() */"##);
        assert!(!lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Ident && (t.text == "Relaxed" || t.text == "unwrap")));
        assert!(lexed.comments[&1].contains("Ordering::Relaxed"));
    }

    #[test]
    fn lifetime_vs_char() {
        let lexed = lex("fn f<'a>(x: &'a u8) { let c = 'b'; let n = '\\n'; }");
        let lifetimes: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn prod2() {}\n";
        let lexed = lex(src);
        assert!(!lexed.is_test_line(1));
        assert!(lexed.is_test_line(2));
        assert!(lexed.is_test_line(4));
        assert!(!lexed.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let lexed = lex("#[cfg(not(test))]\nfn prod() {}\n");
        assert!(!lexed.is_test_line(2));
    }

    #[test]
    fn statement_window_spans_wrapped_chains() {
        let src = "fn f() {\n    let x = foo\n        .bar()\n        .baz();\n}\n";
        let lexed = lex(src);
        let baz = lexed
            .tokens
            .iter()
            .position(|t| t.text == "baz")
            .expect("baz token");
        assert_eq!(lexed.statement_start_line(baz), 2);
    }
}
