//! A hand-rolled Rust lexer, in the same spirit as `vendor/serde_derive`'s
//! token parser: no `syn`/`quote` (the build environment is offline), just
//! enough token structure for line-accurate pattern rules.
//!
//! The lexer understands comments (line, block — nested — and doc), string
//! literals (plain, raw, byte), char literals vs. lifetimes, numeric
//! literals, identifiers and punctuation. A small set
//! of compound operators (`::<`, `::`, `==`, `!=`, `->`, `=>`, `<=`, `>=`,
//! `&&`, `||`, `..`, `..=`) is merged into single tokens so rules can match
//! them without reassembling character pairs.
//!
//! Angle brackets stay single-character tokens: merging `<<`/`>>` would
//! corrupt nested generics (`Vec<Vec<u8>>` ends in two independent `>`).
//! The turbofish `::<` *is* merged, which is what lets downstream passes
//! tell expression-position generics (`collect::<Vec<_>>()`) from
//! comparison/shift operators — a bare `<` in expression position is never
//! a generic opener. Raw identifiers (`r#type`) lex as the bare identifier.
//!
//! Line comments are scanned for `mcn-lint:` suppression directives, which
//! are returned alongside the token stream (see [`LexOutput::directives`]).

/// One lexed token with the 1-based line it starts on.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// 1-based source line.
    pub line: u32,
    /// What the token is.
    pub kind: TokenKind,
}

/// Token classification.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident(String),
    /// A numeric literal (integer or float, with any type suffix).
    Number,
    /// Any string literal (plain, raw or byte); contents are opaque.
    Str,
    /// A character literal.
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// Punctuation; compound operators are pre-merged (`::`, `==`, …).
    Op(String),
}

impl Token {
    /// The identifier text, if this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True iff this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }

    /// True iff this token is the operator `s`.
    pub fn is_op(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Op(o) if o == s)
    }
}

/// A raw `mcn-lint:` comment found during lexing, before directive parsing.
#[derive(Clone, Debug)]
pub struct RawDirective {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// Comment text after `//`, trimmed.
    pub text: String,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct LexOutput {
    /// The token stream, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// Raw `mcn-lint:` comments, in file order.
    pub directives: Vec<RawDirective>,
}

/// Lexes `text` into tokens plus raw lint directives.
///
/// The lexer is tolerant: malformed input (unterminated strings, stray
/// bytes) is consumed without panicking so the analysis pass can never be
/// crashed by the code it inspects.
pub fn lex(text: &str) -> LexOutput {
    Lexer {
        chars: text.chars().collect(),
        pos: 0,
        line: 1,
        out: LexOutput::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexOutput,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, line: u32, kind: TokenKind) {
        self.out.tokens.push(Token { line, kind });
    }

    fn run(mut self) -> LexOutput {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                c if c.is_alphabetic() || c == '_' => self.ident_or_prefixed_literal(line),
                c if c.is_ascii_digit() => self.number(line),
                '"' => {
                    self.bump();
                    self.string_body(line, None);
                }
                '\'' => self.char_or_lifetime(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos + 2;
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let trimmed = text.trim_start_matches(['/', '!']).trim().to_string();
        // Only a comment that *is* a directive counts; prose that merely
        // mentions `mcn-lint:` mid-sentence (docs about the linter) is not
        // one, and must not be reported as malformed.
        if trimmed.starts_with("mcn-lint:") {
            self.out.directives.push(RawDirective {
                line,
                text: trimmed,
            });
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// An identifier — or the prefix of a prefixed literal (`r"…"`,
    /// `r#"…"#`, `b"…"`, `b'…'`, `br#"…"#`).
    fn ident_or_prefixed_literal(&mut self, line: u32) {
        let start = self.pos;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        let word: String = self.chars[start..self.pos].iter().collect();
        match (word.as_str(), self.peek(0)) {
            ("r" | "br" | "b", Some('"')) => {
                if word == "r" || word == "br" {
                    self.bump();
                    self.string_body(line, Some(0));
                } else {
                    self.bump();
                    self.string_body(line, None);
                }
            }
            ("r" | "br", Some('#')) => {
                let mut hashes = 0usize;
                while self.peek(0) == Some('#') {
                    self.bump();
                    hashes += 1;
                }
                if self.peek(0) == Some('"') {
                    self.bump();
                    self.string_body(line, Some(hashes));
                } else if word == "r"
                    && hashes == 1
                    && matches!(self.peek(0), Some(c) if c.is_alphabetic() || c == '_')
                {
                    // `r#ident` raw identifier: emit the bare identifier so
                    // `r#type`/`r#fn` resolve like any other name.
                    let start = self.pos;
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    let raw: String = self.chars[start..self.pos].iter().collect();
                    self.push(line, TokenKind::Ident(raw));
                } else {
                    self.push(line, TokenKind::Ident(word));
                }
            }
            ("b", Some('\'')) => {
                self.char_or_lifetime(line);
            }
            _ => self.push(line, TokenKind::Ident(word)),
        }
    }

    /// Consumes a string body. `raw_hashes` is `Some(n)` for raw strings
    /// terminated by `"` plus `n` hashes (no escapes); `None` for ordinary
    /// strings with backslash escapes.
    fn string_body(&mut self, line: u32, raw_hashes: Option<usize>) {
        match raw_hashes {
            Some(hashes) => loop {
                match self.bump() {
                    Some('"') => {
                        let mut seen = 0usize;
                        while seen < hashes && self.peek(0) == Some('#') {
                            self.bump();
                            seen += 1;
                        }
                        if seen == hashes {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => break,
                }
            },
            None => loop {
                match self.bump() {
                    Some('\\') => {
                        self.bump();
                    }
                    Some('"') | None => break,
                    Some(_) => {}
                }
            },
        }
        self.push(line, TokenKind::Str);
    }

    /// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // the opening quote
        match self.peek(0) {
            Some(c) if (c.is_alphabetic() || c == '_') && self.peek(1) != Some('\'') => {
                // Lifetime: consume the identifier part.
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(line, TokenKind::Lifetime);
            }
            Some('\\') => {
                self.bump();
                self.bump(); // escaped char (enough for \n, \', \\; \u{…} below)
                while self.peek(0).is_some() && self.peek(0) != Some('\'') {
                    self.bump();
                }
                self.bump(); // closing quote
                self.push(line, TokenKind::Char);
            }
            Some(_) => {
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
                self.push(line, TokenKind::Char);
            }
            None => {}
        }
    }

    fn number(&mut self, line: u32) {
        let hex_or_binary = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('X') | Some('b') | Some('o'));
        self.bump();
        if hex_or_binary {
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(line, TokenKind::Number);
            return;
        }
        loop {
            match self.peek(0) {
                Some(c) if c.is_ascii_digit() || c == '_' => {
                    self.bump();
                }
                // A decimal point — unless it starts a `..` range operator
                // or a method call on the literal (`1.max(2)`).
                Some('.')
                    if self.peek(1) != Some('.')
                        && !matches!(self.peek(1), Some(c) if c.is_alphabetic() || c == '_') =>
                {
                    self.bump();
                }
                Some('e') | Some('E')
                    if matches!(self.peek(1), Some(c) if c.is_ascii_digit())
                        || (matches!(self.peek(1), Some('+') | Some('-'))
                            && matches!(self.peek(2), Some(c) if c.is_ascii_digit())) =>
                {
                    self.bump();
                    if matches!(self.peek(0), Some('+') | Some('-')) {
                        self.bump();
                    }
                }
                // Type suffix (`u32`, `f64`, …).
                Some(c) if c.is_alphabetic() => {
                    while let Some(c) = self.peek(0) {
                        if c.is_alphanumeric() || c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
        self.push(line, TokenKind::Number);
    }

    fn punct(&mut self, line: u32) {
        const COMPOUND: [&str; 12] = [
            "::<", "::", "==", "!=", "->", "=>", "<=", ">=", "&&", "||", "..=", "..",
        ];
        for op in COMPOUND {
            let matches_op = op.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c));
            // `..=` must win over `..`; the list is ordered longest-first
            // for the shared prefix.
            if matches_op {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push(line, TokenKind::Op(op.to_string()));
                return;
            }
        }
        let c = self.bump().expect("punct called at a char");
        self.push(line, TokenKind::Op(c.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<TokenKind> {
        lex(text).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_ops_and_lines() {
        let out = lex("fn main() {\n    x == 1;\n}");
        let lines: Vec<u32> = out.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 1, 1, 1, 1, 2, 2, 2, 2, 3]);
        assert!(out.tokens[6].is_op("=="));
    }

    #[test]
    fn strings_chars_and_lifetimes() {
        assert_eq!(kinds(r#""a \" b""#), vec![TokenKind::Str]);
        assert_eq!(kinds(r##"r#"raw "inner" text"#"##), vec![TokenKind::Str]);
        assert_eq!(kinds("'x'"), vec![TokenKind::Char]);
        assert_eq!(kinds(r"'\n'"), vec![TokenKind::Char]);
        let k = kinds("&'a str");
        assert!(matches!(k[1], TokenKind::Lifetime));
        // Idents inside strings never become tokens rules could match.
        assert_eq!(kinds(r#""unwrap lock read_page""#), vec![TokenKind::Str]);
    }

    #[test]
    fn comments_are_stripped_and_directives_collected() {
        let out = lex(concat!(
            "// plain comment\n",
            "/* block /* nested */ still comment */\n",
            "let x = 1; // mcn-lint: allow(hot-path-alloc, reason = \"test\")\n",
            "/// doc comment with unwrap()\n",
            "fn f() {}\n",
        ));
        assert_eq!(out.directives.len(), 1);
        assert_eq!(out.directives[0].line, 3);
        assert!(out.directives[0].text.contains("allow(hot-path-alloc"));
        // No comment text leaks into the token stream.
        assert!(!out
            .tokens
            .iter()
            .any(|t| t.is_ident("unwrap") || t.is_ident("comment")));
    }

    #[test]
    fn compound_operators_merge() {
        let k = kinds("a::b != c -> d ..= e");
        assert!(matches!(&k[1], TokenKind::Op(o) if o == "::"));
        assert!(matches!(&k[3], TokenKind::Op(o) if o == "!="));
        assert!(matches!(&k[5], TokenKind::Op(o) if o == "->"));
        assert!(matches!(&k[7], TokenKind::Op(o) if o == "..="));
        // A decimal point, exponent or suffix stays inside its literal; a
        // range or a method call on an integer literal does not.
        for lit in ["1.5", "2e9", "3f64", "0x1E"] {
            assert_eq!(kinds(lit), vec![TokenKind::Number], "{lit}");
        }
        let k = kinds("0..9");
        assert!(matches!(&k[1], TokenKind::Op(o) if o == ".."));
        let k = kinds("1.max(2)");
        assert!(matches!(&k[2], TokenKind::Ident(s) if s == "max"));
    }

    #[test]
    fn raw_identifiers_lex_as_bare_idents() {
        let k = kinds("let r#type = r#fn + 1;");
        assert!(matches!(&k[1], TokenKind::Ident(s) if s == "type"));
        assert!(matches!(&k[3], TokenKind::Ident(s) if s == "fn"));
        // A raw string still lexes as a string, not a raw identifier.
        assert_eq!(kinds(r###"r#"text"#"###), vec![TokenKind::Str]);
        // Struct-field position, the form the resolver meets.
        let k = kinds("struct S { r#match: u32 }");
        assert!(k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(s) if s == "match")));
        assert!(!k
            .iter()
            .any(|t| matches!(t, TokenKind::Ident(s) if s == "r")));
    }

    #[test]
    fn turbofish_merges_but_shifts_stay_single() {
        // `::<` is one token, so expression-position generics are explicit.
        let k = kinds("v.iter().collect::<Vec<_>>()");
        assert!(k
            .iter()
            .any(|t| matches!(t, TokenKind::Op(o) if o == "::<")));
        // Plain paths still use `::`.
        let k = kinds("Vec::new()");
        assert!(matches!(&k[1], TokenKind::Op(o) if o == "::"));
        // Shift operators are NOT merged into generic-looking compounds:
        // `1 << 2` is two `<` tokens, `x >> 1` two `>` tokens — and nested
        // generics keep their independent closers.
        let k = kinds("1 << 2");
        assert!(matches!(&k[1], TokenKind::Op(o) if o == "<"));
        assert!(matches!(&k[2], TokenKind::Op(o) if o == "<"));
        let k = kinds("Vec<Vec<u8>>");
        let closers = k
            .iter()
            .filter(|t| matches!(t, TokenKind::Op(o) if o == ">"))
            .count();
        assert_eq!(closers, 2);
    }

    #[test]
    fn lexer_survives_malformed_input() {
        // Unterminated string, stray quote, lone backslash: no panic.
        let _ = lex("let s = \"unterminated");
        let _ = lex("'");
        let _ = lex("\\ @ $");
    }
}
