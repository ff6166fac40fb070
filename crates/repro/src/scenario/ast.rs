//! The scenario AST — the parser's output and the canonical printer.
//!
//! A scenario is a named graph of four node kinds. Each node is written as
//!
//! ```text
//! <kind> <name> {
//!   <attr> = <value>
//!   ...
//! }
//! ```
//!
//! and edges are expressed with the `uses = [other, ...]` attribute, whose
//! values are bare identifiers referring to other nodes by name. The AST is
//! deliberately untyped — attribute names and value types are checked by
//! [`mod@super::validate`], which accumulates every problem instead of stopping
//! at the first — so a file with a bad attribute still parses and every
//! error in it can be reported in one pass.
//!
//! [`ScenarioAst::print`] renders the canonical form: stable indentation,
//! one attribute per line, shortest-round-trip float formatting. The
//! property tests pin `parse ∘ print` as the identity on printed form.

use super::span::{Span, Spanned};

/// The four node kinds a scenario graph is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A simulated board at a power mode.
    Device,
    /// A network (or list of networks) built at a precision and batch sizes.
    Model,
    /// A traffic source driving models: closed-loop latency runs, a
    /// closed-loop serving sweep, or a Poisson open-loop feed.
    Traffic,
    /// A bound over the metrics a traffic node produces.
    Assert,
}

impl NodeKind {
    /// Every kind, in declaration-order convention.
    pub const ALL: [NodeKind; 4] = [
        NodeKind::Device,
        NodeKind::Model,
        NodeKind::Traffic,
        NodeKind::Assert,
    ];

    /// The source keyword for this kind.
    pub fn keyword(self) -> &'static str {
        match self {
            NodeKind::Device => "device",
            NodeKind::Model => "model",
            NodeKind::Traffic => "traffic",
            NodeKind::Assert => "assert",
        }
    }

    /// Parses a keyword into a kind.
    pub fn from_keyword(word: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.keyword() == word)
    }

    /// The node kind this kind's `uses` edges must point at, if any.
    pub fn uses_target(self) -> Option<NodeKind> {
        match self {
            NodeKind::Device => None,
            NodeKind::Model => Some(NodeKind::Device),
            NodeKind::Traffic => Some(NodeKind::Model),
            NodeKind::Assert => Some(NodeKind::Traffic),
        }
    }
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A double-quoted string.
    Str(String),
    /// A number (integers and floats share one representation).
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A bare identifier — a reference to another node by name.
    Ident(String),
    /// A bracketed list of values.
    List(Vec<Spanned<Value>>),
}

impl Value {
    /// Human-readable type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Num(_) => "number",
            Value::Bool(_) => "bool",
            Value::Ident(_) => "identifier",
            Value::List(_) => "list",
        }
    }

    fn print_into(&self, out: &mut String) {
        match self {
            Value::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        _ => out.push(ch),
                    }
                }
                out.push('"');
            }
            // `{}` on f64 prints the shortest digits that round-trip, so a
            // printed scenario re-parses to bit-identical numbers.
            Value::Num(n) => out.push_str(&format!("{n}")),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Ident(name) => out.push_str(name),
            Value::List(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.value.print_into(out);
                }
                out.push(']');
            }
        }
    }
}

/// One `name = value` attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attr {
    /// Attribute name.
    pub name: Spanned<String>,
    /// Attribute value.
    pub value: Spanned<Value>,
}

/// One node statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node kind (`device` / `model` / `traffic` / `assert`).
    pub kind: Spanned<NodeKind>,
    /// The node's graph-unique name.
    pub name: Spanned<String>,
    /// Attributes in source order.
    pub attrs: Vec<Attr>,
    /// The whole statement.
    pub span: Span,
}

impl Node {
    /// The first attribute named `name`, if present.
    pub fn attr(&self, name: &str) -> Option<&Attr> {
        self.attrs.iter().find(|a| a.name.value == name)
    }
}

/// A parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioAst {
    /// The scenario's quoted name from the header.
    pub name: Spanned<String>,
    /// Nodes in source order.
    pub nodes: Vec<Node>,
    /// The whole scenario block.
    pub span: Span,
}

impl ScenarioAst {
    /// Renders the canonical source form; `parse(print(ast))` reproduces the
    /// AST up to spans, and printing is idempotent.
    pub fn print(&self) -> String {
        let mut out = String::new();
        out.push_str("scenario ");
        Value::Str(self.name.value.clone()).print_into(&mut out);
        out.push_str(" {\n");
        for node in &self.nodes {
            out.push_str(&format!(
                "  {} {} {{\n",
                node.kind.value.keyword(),
                node.name.value
            ));
            for attr in &node.attrs {
                out.push_str(&format!("    {} = ", attr.name.value));
                attr.value.value.print_into(&mut out);
                out.push('\n');
            }
            out.push_str("  }\n");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_keywords_round_trip() {
        for kind in NodeKind::ALL {
            assert_eq!(NodeKind::from_keyword(kind.keyword()), Some(kind));
        }
        assert_eq!(NodeKind::from_keyword("widget"), None);
    }

    #[test]
    fn printer_escapes_strings() {
        let mut out = String::new();
        Value::Str("a\"b\\c".into()).print_into(&mut out);
        assert_eq!(out, r#""a\"b\\c""#);
    }

    #[test]
    fn printer_renders_shortest_float() {
        let mut out = String::new();
        Value::Num(0.1).print_into(&mut out);
        assert_eq!(out, "0.1");
        out.clear();
        Value::Num(256.0).print_into(&mut out);
        assert_eq!(out, "256");
    }
}
