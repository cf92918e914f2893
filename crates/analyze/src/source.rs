//! Per-file analysis context: the token stream plus the derived structure
//! rules need — function spans, `#[cfg(test)]` regions, brace matching and
//! parsed `mcn-lint:` suppression directives.

use crate::lexer::{self, LexOutput, Token};

/// A parsed `// mcn-lint: allow(rule, reason = "...")` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Line the directive comment sits on.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: String,
    /// The mandatory human-readable reason.
    pub reason: String,
    /// Lines the suppression covers: the directive's own line and the
    /// first following code line (so the comment can trail a statement or
    /// sit on its own line above one).
    pub covers: Vec<u32>,
}

/// The span of one `fn` item in the token stream.
#[derive(Clone, Debug)]
pub struct FnSpan {
    /// Function name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body's opening `{` (== `end` when the item has
    /// no body, e.g. a trait method declaration).
    pub body_start: usize,
    /// Token index one past the body's closing `}`.
    pub end: usize,
    /// Line of the `fn` keyword.
    pub line: u32,
}

impl FnSpan {
    /// True if the token index falls inside this function's body.
    pub fn contains(&self, idx: usize) -> bool {
        idx >= self.body_start && idx < self.end
    }
}

/// One malformed `mcn-lint:` comment, reported as an `allow-syntax` finding.
#[derive(Clone, Debug)]
pub struct BadDirective {
    /// Line of the comment.
    pub line: u32,
    /// What was wrong with it.
    pub message: String,
}

/// A lexed and structurally indexed source file.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Name of the crate directory the file belongs to (`analyze`,
    /// `storage`, …; the workspace root package is `mcn`).
    pub crate_name: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Raw source lines, for excerpts.
    pub lines: Vec<String>,
    /// Parsed suppression directives.
    pub allows: Vec<Allow>,
    /// Malformed directives (surfaced as findings by the driver).
    pub bad_directives: Vec<BadDirective>,
    /// Top-level `fn` spans, in source order.
    pub fns: Vec<FnSpan>,
    /// Token ranges `[start, end)` that are test-only code
    /// (`#[cfg(test)] mod … { … }` bodies; the whole file when it lives
    /// under `tests/` or `benches/`, or when another file declares it as
    /// an out-of-line test module — see [`crate::workspace::Workspace`]).
    pub test_ranges: Vec<(usize, usize)>,
    /// Names of the out-of-line test modules this file declares
    /// (`#[cfg(test)] [pub(…)] mod name;`).
    pub test_mods: Vec<String>,
}

impl SourceFile {
    /// Builds a `SourceFile` from raw text. `path` should be
    /// workspace-relative; it is used for crate attribution and for the
    /// tests/-directory heuristic.
    pub fn from_str(path: &str, text: &str) -> SourceFile {
        let path = path.replace('\\', "/");
        let crate_name = crate_name_of(&path);
        let LexOutput { tokens, directives } = lexer::lex(text);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();

        let mut allows = Vec::new();
        let mut bad_directives = Vec::new();
        for d in directives {
            match parse_directive(&d.text) {
                Ok((rule, reason)) => {
                    let covers = covered_lines(d.line, &tokens);
                    allows.push(Allow {
                        line: d.line,
                        rule,
                        reason,
                        covers,
                    });
                }
                Err(message) => bad_directives.push(BadDirective {
                    line: d.line,
                    message,
                }),
            }
        }

        let fns = find_fns(&tokens);
        let whole_file_is_test =
            path.contains("/tests/") || path.contains("/benches/") || path.starts_with("tests/");
        let (mut test_ranges, test_mods) = find_test_mods(&tokens);
        if whole_file_is_test {
            test_ranges = vec![(0, tokens.len())];
        }

        SourceFile {
            path,
            crate_name,
            tokens,
            lines,
            allows,
            bad_directives,
            fns,
            test_ranges,
            test_mods,
        }
    }

    /// True if a finding of `rule` at `line` is suppressed by an allow.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.covers.contains(&line))
    }

    /// True if the token index lies in test-only code.
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// The trimmed source text of a 1-based line, for finding excerpts.
    pub fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// The innermost function span containing the token index.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        // Nested fns appear after their parent in `fns` with a tighter
        // range; take the last match for the innermost one.
        self.fns.iter().rfind(|f| f.contains(idx))
    }

    /// Token index one past the `}` matching the `{` at `open`.
    pub fn matching_close(&self, open: usize) -> usize {
        matching_close(&self.tokens, open)
    }
}

fn crate_name_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        _ => "mcn".to_string(),
    }
}

/// Parses the text of a `mcn-lint:` comment into `(rule, reason)`.
fn parse_directive(text: &str) -> Result<(String, String), String> {
    let rest = match text.split_once("mcn-lint:") {
        Some((_, rest)) => rest.trim(),
        None => return Err("missing mcn-lint: prefix".to_string()),
    };
    let inner = rest
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
        .and_then(|r| r.rfind(')').map(|i| &r[..i]))
        .ok_or_else(|| format!("expected `allow(rule, reason = \"...\")`, got `{rest}`"))?;
    let (rule, reason_part) = inner
        .split_once(',')
        .ok_or_else(|| "allow() needs both a rule and a reason".to_string())?;
    let rule = rule.trim().to_string();
    if rule.is_empty() {
        return Err("empty rule name in allow()".to_string());
    }
    let reason = reason_part
        .trim()
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "allow() reason must be written `reason = \"...\"`".to_string())?;
    let reason = reason.trim_matches('"').trim().to_string();
    if reason.is_empty() {
        return Err("allow() reason must not be empty".to_string());
    }
    Ok((rule, reason))
}

/// The lines a directive at `line` suppresses: its own line plus the first
/// line after it that has any code on it.
fn covered_lines(line: u32, tokens: &[Token]) -> Vec<u32> {
    let mut covers = vec![line];
    if let Some(next) = tokens.iter().map(|t| t.line).filter(|&l| l > line).min() {
        covers.push(next);
    }
    covers
}

/// Token index one past the `}` matching the `{` at `open`; tolerant of
/// truncated streams (returns `tokens.len()`).
pub(crate) fn matching_close(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_op("{") {
            depth += 1;
        } else if t.is_op("}") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    tokens.len()
}

/// Finds every `fn` item span. Handles return types, where clauses and
/// bodiless trait-method declarations.
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if let Some(name) = name_tok.ident() {
                    let mut j = i + 2;
                    // Skip to the body `{`, or a `;` for declarations.
                    // Generic params / argument parens / return types can
                    // contain braces only inside closures in const generic
                    // exprs — not present in this codebase; a simple scan
                    // that respects paren depth suffices.
                    let mut paren = 0i32;
                    let mut bracket = 0i32;
                    let (mut body_start, mut end) = (tokens.len(), tokens.len());
                    while j < tokens.len() {
                        let t = &tokens[j];
                        if t.is_op("(") {
                            paren += 1;
                        } else if t.is_op(")") {
                            paren -= 1;
                        } else if t.is_op("[") {
                            bracket += 1;
                        } else if t.is_op("]") {
                            bracket -= 1;
                        } else if paren == 0 && bracket == 0 {
                            if t.is_op("{") {
                                body_start = j;
                                end = matching_close(tokens, j);
                                break;
                            }
                            if t.is_op(";") {
                                body_start = j;
                                end = j;
                                break;
                            }
                        }
                        j += 1;
                    }
                    fns.push(FnSpan {
                        name: name.to_string(),
                        start: i,
                        body_start,
                        end,
                        line: tokens[i].line,
                    });
                }
            }
        }
        i += 1;
    }
    fns
}

/// Finds `#[cfg(test)] [pub(…)] mod name …` declarations: the body ranges
/// of inline modules and the names of out-of-line ones.
fn find_test_mods(tokens: &[Token]) -> (Vec<(usize, usize)>, Vec<String>) {
    let mut ranges = Vec::new();
    let mut names = Vec::new();
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_op("#")
            && tokens[i + 1].is_op("[")
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_op("(")
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_op(")")
            && tokens[i + 6].is_op("]");
        if is_cfg_test {
            // Allow further attributes between the cfg and the mod.
            let mut j = i + 7;
            while j < tokens.len() && tokens[j].is_op("#") {
                // Skip `#[...]`.
                let mut depth = 0i32;
                j += 1;
                while j < tokens.len() {
                    if tokens[j].is_op("[") {
                        depth += 1;
                    } else if tokens[j].is_op("]") {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // Skip a visibility: `pub`, `pub(crate)`, `pub(super)`, …
            if tokens.get(j).is_some_and(|t| t.is_ident("pub")) {
                j += 1;
                if tokens.get(j).is_some_and(|t| t.is_op("(")) {
                    while j < tokens.len() && !tokens[j].is_op(")") {
                        j += 1;
                    }
                    j += 1;
                }
            }
            if tokens.get(j).is_some_and(|t| t.is_ident("mod")) {
                let name = tokens.get(j + 1).and_then(Token::ident);
                match (name, tokens.get(j + 2)) {
                    (Some(_), Some(t)) if t.is_op("{") => {
                        ranges.push((j + 2, matching_close(tokens, j + 2)));
                    }
                    (Some(name), Some(t)) if t.is_op(";") => names.push(name.to_string()),
                    _ => {}
                }
            }
        }
        i += 1;
    }
    (ranges, names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_test_ranges() {
        let f = SourceFile::from_str(
            "crates/x/src/lib.rs",
            concat!(
                "pub fn alpha(a: u32) -> u32 { a + 1 }\n",
                "fn beta() { alpha(2); }\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    #[test]\n",
                "    fn gamma() { beta(); }\n",
                "}\n",
            ),
        );
        assert_eq!(f.crate_name, "x");
        let names: Vec<&str> = f.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        let gamma = &f.fns[2];
        assert!(f.in_test_code(gamma.start));
        let alpha = &f.fns[0];
        assert!(!f.in_test_code(alpha.start));
    }

    #[test]
    fn tests_directory_is_all_test_code() {
        let f = SourceFile::from_str("crates/x/tests/t.rs", "fn helper() {}\n");
        assert!(f.in_test_code(0));
        let root = SourceFile::from_str("tests/t.rs", "fn helper() {}\n");
        assert_eq!(root.crate_name, "mcn");
        assert!(root.in_test_code(0));
    }

    #[test]
    fn allow_parsing_and_coverage() {
        let f = SourceFile::from_str(
            "crates/x/src/lib.rs",
            concat!(
                "// mcn-lint: allow(hot-path-alloc, reason = \"one buffer per call\")\n",
                "fn guard(n: usize) -> Vec<u8> { vec![0; n] }\n",
                "fn other(n: usize) -> Vec<u8> { vec![1; n] }\n",
            ),
        );
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "hot-path-alloc");
        assert!(f.allowed("hot-path-alloc", 2));
        assert!(!f.allowed("hot-path-alloc", 3));
        assert!(!f.allowed("lock-across-io", 2));
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let f = SourceFile::from_str(
            "crates/x/src/lib.rs",
            "fn guard(n: usize) -> Vec<u8> { vec![0; n] } // mcn-lint: allow(hot-path-alloc, reason = \"ok\")\n",
        );
        assert!(f.allowed("hot-path-alloc", 1));
    }

    #[test]
    fn malformed_allow_is_reported() {
        let f = SourceFile::from_str(
            "crates/x/src/lib.rs",
            concat!(
                "// mcn-lint: allow(hot-path-alloc)\n",
                "// mcn-lint: deny(hot-path-alloc, reason = \"x\")\n",
                "// mcn-lint: allow(hot-path-alloc, reason = \"\")\n",
            ),
        );
        assert!(f.allows.is_empty());
        assert_eq!(f.bad_directives.len(), 3);
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let f = SourceFile::from_str(
            "crates/x/src/lib.rs",
            "fn outer() {\n    fn inner() { let _x = 1; }\n}\n",
        );
        let one = f
            .tokens
            .iter()
            .position(|t| matches!(t.kind, crate::lexer::TokenKind::Number))
            .unwrap();
        assert_eq!(f.enclosing_fn(one).unwrap().name, "inner");
    }
}
