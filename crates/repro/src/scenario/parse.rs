//! The `.scn` parser: a hand-rolled span-tracking lexer and
//! recursive-descent parser with error recovery.
//!
//! Following the workspace's std-only idiom (the RFC 8259 writer in
//! `trtsim-metrics` is the precedent), there is no parser generator and no
//! regex: the lexer walks bytes and hands out [`Spanned`] tokens, and the
//! parser keeps going after an error by synchronizing at statement
//! boundaries (the next node keyword or closing brace), so one pass reports
//! *every* syntax problem in the file, not just the first. Every
//! [`ParseError`] variant carries the byte span of the offending text; the
//! golden tests assert those spans exactly.

use super::ast::{Attr, Node, NodeKind, ScenarioAst, Value};
use super::span::{Diagnostic, Span, Spanned};

/// A syntax error with the byte span it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A byte no token can start with.
    UnexpectedChar {
        /// The character.
        ch: char,
        /// Where it sits.
        span: Span,
    },
    /// A string literal with no closing quote before end of input.
    UnterminatedString {
        /// From the opening quote to end of input.
        span: Span,
    },
    /// Digits that do not form a number (e.g. `1.2.3`).
    InvalidNumber {
        /// The offending text.
        text: String,
        /// Where it sits.
        span: Span,
    },
    /// The parser needed one construct and found another.
    Expected {
        /// What was required (e.g. `"="`, "attribute value").
        what: &'static str,
        /// What was found instead, rendered for the message.
        found: String,
        /// Where the wrong token sits.
        span: Span,
    },
    /// A statement began with a word that is not a node kind.
    UnknownNodeKind {
        /// The word.
        word: String,
        /// Where it sits.
        span: Span,
    },
    /// The file does not start with `scenario "name" {`.
    MissingScenarioHeader {
        /// Start of input.
        span: Span,
    },
}

impl ParseError {
    /// The span the error is anchored at.
    pub fn span(&self) -> Span {
        match self {
            ParseError::UnexpectedChar { span, .. }
            | ParseError::UnterminatedString { span }
            | ParseError::InvalidNumber { span, .. }
            | ParseError::Expected { span, .. }
            | ParseError::UnknownNodeKind { span, .. }
            | ParseError::MissingScenarioHeader { span } => *span,
        }
    }

    /// Renders as a [`Diagnostic`].
    pub fn diagnostic(&self) -> Diagnostic {
        let message = match self {
            ParseError::UnexpectedChar { ch, .. } => {
                format!("unexpected character `{}`", ch.escape_default())
            }
            ParseError::UnterminatedString { .. } => "unterminated string literal".to_string(),
            ParseError::InvalidNumber { text, .. } => format!("invalid number `{text}`"),
            ParseError::Expected { what, found, .. } => format!("expected {what}, found {found}"),
            ParseError::UnknownNodeKind { word, .. } => format!(
                "unknown node kind `{word}` (expected one of `device`, `model`, `traffic`, `assert`)"
            ),
            ParseError::MissingScenarioHeader { .. } => {
                "a scenario file must start with `scenario \"name\" {`".to_string()
            }
        };
        Diagnostic::new(message, self.span())
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.diagnostic().message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Num(f64),
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Eq,
    Comma,
    Eof,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(w) => format!("`{w}`"),
            Token::Str(s) => format!("string \"{s}\""),
            Token::Num(n) => format!("number `{n}`"),
            Token::LBrace => "`{`".into(),
            Token::RBrace => "`}`".into(),
            Token::LBracket => "`[`".into(),
            Token::RBracket => "`]`".into(),
            Token::Eq => "`=`".into(),
            Token::Comma => "`,`".into(),
            Token::Eof => "end of input".into(),
        }
    }
}

/// Lexes the whole input. Bad bytes become errors and are skipped, so the
/// token stream (always ending in `Eof`) exists even for broken input.
fn lex(src: &str) -> (Vec<Spanned<Token>>, Vec<ParseError>) {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut errors = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' | b'}' | b'[' | b']' | b'=' | b',' => {
                let token = match b {
                    b'{' => Token::LBrace,
                    b'}' => Token::RBrace,
                    b'[' => Token::LBracket,
                    b']' => Token::RBracket,
                    b'=' => Token::Eq,
                    _ => Token::Comma,
                };
                tokens.push(Spanned::new(token, Span::new(i, i + 1)));
                i += 1;
            }
            b'"' => {
                let lo = i;
                i += 1;
                let mut text = String::new();
                let mut closed = false;
                while i < bytes.len() {
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            closed = true;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => {
                            text.push(bytes[i + 1] as char);
                            i += 2;
                        }
                        _ => {
                            // Strings are UTF-8 slices of the source; walk a
                            // full character at a time.
                            let ch = src[i..].chars().next().expect("in-bounds char");
                            text.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                if closed {
                    tokens.push(Spanned::new(Token::Str(text), Span::new(lo, i)));
                } else {
                    errors.push(ParseError::UnterminatedString {
                        span: Span::new(lo, i),
                    });
                }
            }
            b'0'..=b'9' | b'-' | b'+' => {
                let lo = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || matches!(bytes[i], b'.' | b'e' | b'E' | b'_')
                        || (matches!(bytes[i], b'+' | b'-') && matches!(bytes[i - 1], b'e' | b'E')))
                {
                    i += 1;
                }
                let text = &src[lo..i];
                let span = Span::new(lo, i);
                match text.replace('_', "").parse::<f64>() {
                    Ok(n) if n.is_finite() => tokens.push(Spanned::new(Token::Num(n), span)),
                    _ => errors.push(ParseError::InvalidNumber {
                        text: text.to_string(),
                        span,
                    }),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let lo = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || matches!(bytes[i], b'_' | b'-'))
                {
                    i += 1;
                }
                tokens.push(Spanned::new(
                    Token::Ident(src[lo..i].to_string()),
                    Span::new(lo, i),
                ));
            }
            _ => {
                let ch = src[i..].chars().next().expect("in-bounds char");
                errors.push(ParseError::UnexpectedChar {
                    ch,
                    span: Span::new(i, i + ch.len_utf8()),
                });
                i += ch.len_utf8();
            }
        }
    }
    tokens.push(Spanned::new(Token::Eof, Span::point(src.len())));
    (tokens, errors)
}

struct Parser {
    tokens: Vec<Spanned<Token>>,
    pos: usize,
    errors: Vec<ParseError>,
}

impl Parser {
    fn peek(&self) -> &Spanned<Token> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Spanned<Token> {
        let t = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// Reports that `what` was required where the current token sits, and
    /// returns that token's span.
    fn expected(&mut self, what: &'static str) -> Span {
        let found = self.peek().clone();
        self.errors.push(ParseError::Expected {
            what,
            found: found.value.describe(),
            span: found.span,
        });
        found.span
    }

    fn eat(&mut self, want: &Token, what: &'static str) -> Option<Span> {
        if &self.peek().value == want {
            Some(self.bump().span)
        } else {
            self.expected(what);
            None
        }
    }

    /// Skips tokens until the next plausible statement boundary: a node
    /// keyword, a closing brace, or end of input.
    fn sync_to_statement(&mut self) {
        loop {
            match &self.peek().value {
                Token::Eof | Token::RBrace => return,
                Token::Ident(w) if NodeKind::from_keyword(w).is_some() => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_scenario(&mut self) -> Option<ScenarioAst> {
        let start = self.peek().span;
        match &self.peek().value {
            Token::Ident(w) if w == "scenario" => {
                self.bump();
            }
            _ => {
                self.errors
                    .push(ParseError::MissingScenarioHeader { span: start });
                return None;
            }
        }
        let name = match &self.peek().value {
            Token::Str(s) => {
                let s = s.clone();
                let t = self.bump();
                Spanned::new(s, t.span)
            }
            _ => Spanned::new(String::new(), self.expected("a quoted scenario name")),
        };
        self.eat(&Token::LBrace, "`{`");
        let mut nodes = Vec::new();
        loop {
            match &self.peek().value {
                Token::RBrace | Token::Eof => break,
                Token::Ident(w) => {
                    if let Some(kind) = NodeKind::from_keyword(w) {
                        let kw = self.bump();
                        if let Some(node) = self.parse_node(Spanned::new(kind, kw.span)) {
                            nodes.push(node);
                        }
                    } else {
                        let word = w.clone();
                        let t = self.bump();
                        self.errors
                            .push(ParseError::UnknownNodeKind { word, span: t.span });
                        self.sync_to_statement();
                    }
                }
                _ => {
                    self.expected("a node statement");
                    self.bump();
                    self.sync_to_statement();
                }
            }
        }
        let close = self
            .eat(&Token::RBrace, "`}` closing the scenario")
            .unwrap_or(self.peek().span);
        Some(ScenarioAst {
            name,
            nodes,
            span: start.to(close),
        })
    }

    fn parse_node(&mut self, kind: Spanned<NodeKind>) -> Option<Node> {
        let name = match &self.peek().value {
            Token::Ident(w) => {
                let w = w.clone();
                let t = self.bump();
                Spanned::new(w, t.span)
            }
            _ => {
                self.expected("a node name");
                self.sync_to_statement();
                return None;
            }
        };
        if self.eat(&Token::LBrace, "`{`").is_none() {
            self.sync_to_statement();
            return None;
        }
        let mut attrs = Vec::new();
        loop {
            match &self.peek().value {
                Token::RBrace | Token::Eof => break,
                Token::Ident(_) => {
                    if let Some(attr) = self.parse_attr() {
                        attrs.push(attr);
                    } else {
                        self.sync_in_body();
                    }
                }
                _ => {
                    self.expected("an attribute or `}`");
                    self.bump();
                    self.sync_in_body();
                }
            }
        }
        let close = self
            .eat(&Token::RBrace, "`}` closing the node")
            .unwrap_or(self.peek().span);
        Some(Node {
            span: kind.span.to(close),
            kind,
            name,
            attrs,
        })
    }

    /// Recovery inside a node body: stop at the next attribute name, the
    /// closing brace, or end of input.
    fn sync_in_body(&mut self) {
        loop {
            match &self.peek().value {
                Token::Eof | Token::RBrace | Token::Ident(_) => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_attr(&mut self) -> Option<Attr> {
        let name = match self.bump() {
            Spanned {
                value: Token::Ident(w),
                span,
            } => Spanned::new(w, span),
            _ => unreachable!("caller checked for an identifier"),
        };
        self.eat(&Token::Eq, "`=`")?;
        let value = self.parse_value()?;
        Some(Attr { name, value })
    }

    fn parse_value(&mut self) -> Option<Spanned<Value>> {
        let t = self.peek().clone();
        match t.value {
            Token::Str(s) => {
                self.bump();
                Some(Spanned::new(Value::Str(s), t.span))
            }
            Token::Num(n) => {
                self.bump();
                Some(Spanned::new(Value::Num(n), t.span))
            }
            Token::Ident(w) => {
                self.bump();
                let v = match w.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    _ => Value::Ident(w),
                };
                Some(Spanned::new(v, t.span))
            }
            Token::LBracket => {
                let open = self.bump().span;
                let mut items = Vec::new();
                loop {
                    match &self.peek().value {
                        Token::RBracket => break,
                        Token::Eof => break,
                        _ => {
                            items.push(self.parse_value()?);
                            if self.peek().value == Token::Comma {
                                self.bump();
                            } else if self.peek().value != Token::RBracket {
                                break;
                            }
                        }
                    }
                }
                let close = self.eat(&Token::RBracket, "`]` closing the list")?;
                Some(Spanned::new(Value::List(items), open.to(close)))
            }
            _ => {
                self.expected("an attribute value");
                None
            }
        }
    }
}

/// Parses one `.scn` source. On failure every accumulated syntax error is
/// returned, not just the first.
///
/// # Errors
///
/// Returns the accumulated [`ParseError`]s (never empty on `Err`).
pub fn parse(src: &str) -> Result<ScenarioAst, Vec<ParseError>> {
    let (tokens, lex_errors) = lex(src);
    let mut parser = Parser {
        tokens,
        pos: 0,
        errors: Vec::new(),
    };
    let ast = parser.parse_scenario();
    let mut errors = lex_errors;
    errors.extend(parser.errors);
    match ast {
        Some(ast) if errors.is_empty() => Ok(ast),
        // parse_scenario returns None only after pushing an error.
        _ => Err(errors),
    }
}
