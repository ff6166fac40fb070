//! Property test: parse ∘ print is the identity on canonical form.
//!
//! A random scenario AST is generated from a seed, printed with
//! [`ScenarioAst::print`], re-parsed, and printed again: the two printed
//! forms must be byte-identical, and the re-parsed AST must preserve the
//! structure (names, kinds, attribute values) of the original.

use proptest::prelude::*;
use trtsim_repro::scenario::ast::{Attr, Node, NodeKind, ScenarioAst, Value};
use trtsim_repro::scenario::parse::parse;
use trtsim_repro::scenario::span::{Span, Spanned};

/// Deterministic generator state (SplitMix64), seeded per case.
struct Gen {
    state: u64,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// An identifier that can never collide with a keyword or bool literal.
    fn ident(&mut self) -> String {
        let len = 1 + self.below(6) as usize;
        let mut s = String::from("n");
        for _ in 0..len {
            let c = b"abcdefghijklmnopqrstuvwxyz0123456789_-"[self.below(38) as usize];
            s.push(c as char);
        }
        s
    }

    /// A string over a charset including the characters the printer must
    /// escape (`"`, `\`) and ones the lexer must pass through (`#`, space,
    /// newline, non-ASCII).
    fn string(&mut self) -> String {
        let chars = ['a', 'Z', '9', ' ', '"', '\\', '#', '{', '=', 'µ', '\n'];
        let len = self.below(8) as usize;
        (0..len)
            .map(|_| chars[self.below(chars.len() as u64) as usize])
            .collect()
    }

    fn number(&mut self) -> f64 {
        match self.below(4) {
            0 => self.below(10_000) as f64,
            1 => -(self.below(1_000) as f64),
            2 => self.below(1_000_000) as f64 / 128.0,
            _ => f64::from_bits(self.next() >> 2),
        }
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 5 } else { 4 }) {
            0 => Value::Str(self.string()),
            1 => {
                let mut n = self.number();
                if !n.is_finite() {
                    n = 0.5;
                }
                Value::Num(n)
            }
            2 => Value::Bool(self.below(2) == 0),
            3 => Value::Ident(self.ident()),
            _ => {
                let len = self.below(4) as usize;
                Value::List(
                    (0..len)
                        .map(|_| Spanned::new(self.value(depth + 1), Span::default()))
                        .collect(),
                )
            }
        }
    }

    fn node(&mut self) -> Node {
        let kind = NodeKind::ALL[self.below(4) as usize];
        let attrs = (0..self.below(4))
            .map(|_| Attr {
                name: Spanned::new(self.ident(), Span::default()),
                value: Spanned::new(self.value(0), Span::default()),
            })
            .collect();
        Node {
            kind: Spanned::new(kind, Span::default()),
            name: Spanned::new(self.ident(), Span::default()),
            attrs,
            span: Span::default(),
        }
    }

    fn scenario(&mut self) -> ScenarioAst {
        let nodes = (0..self.below(5)).map(|_| self.node()).collect();
        ScenarioAst {
            name: Spanned::new(self.string(), Span::default()),
            nodes,
            span: Span::default(),
        }
    }
}

/// Structural equality ignoring spans.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Ident(x), Value::Ident(y)) => x == y,
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| same_value(&x.value, &y.value))
        }
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_print_round_trips(seed in 0u64..u64::MAX) {
        let mut gen = Gen { state: seed };
        let ast = gen.scenario();
        let printed = ast.print();
        let reparsed = match parse(&printed) {
            Ok(reparsed) => reparsed,
            Err(errs) => {
                return Err(TestCaseError::fail(format!(
                    "printed form failed to parse: {errs:?}\n{printed}"
                )))
            }
        };
        prop_assert_eq!(&reparsed.print(), &printed);
        prop_assert_eq!(&reparsed.name.value, &ast.name.value);
        prop_assert_eq!(reparsed.nodes.len(), ast.nodes.len());
        for (got, want) in reparsed.nodes.iter().zip(&ast.nodes) {
            prop_assert_eq!(got.kind.value, want.kind.value);
            prop_assert_eq!(&got.name.value, &want.name.value);
            prop_assert_eq!(got.attrs.len(), want.attrs.len());
            for (ga, wa) in got.attrs.iter().zip(&want.attrs) {
                prop_assert_eq!(&ga.name.value, &wa.name.value);
                prop_assert!(
                    same_value(&ga.value.value, &wa.value.value),
                    "value drift: {:?} vs {:?}", ga.value.value, wa.value.value
                );
            }
        }
    }
}
