//! Parser golden tests: every [`ParseError`] variant, with exact byte-span
//! assertions — errors must land on the offending bytes, not merely occur.

use trtsim_repro::scenario::parse::{parse, ParseError};
use trtsim_repro::scenario::span::Span;

fn errors(src: &str) -> Vec<ParseError> {
    parse(src).expect_err("source is intentionally broken")
}

#[test]
fn unexpected_char_spans_the_byte() {
    let src = "scenario \"x\" { @ }";
    let at = src.find('@').unwrap();
    let errs = errors(src);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            ParseError::UnexpectedChar { ch: '@', span } if *span == Span::new(at, at + 1)
        )),
        "{errs:?}"
    );
}

#[test]
fn unexpected_char_spans_multibyte() {
    let src = "scenario \"x\" { £ }";
    let at = src.find('£').unwrap();
    let errs = errors(src);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            ParseError::UnexpectedChar { ch: '£', span } if *span == Span::new(at, at + 2)
        )),
        "{errs:?}"
    );
}

#[test]
fn unterminated_string_spans_to_eof() {
    let src = "scenario \"x";
    let open = src.find('"').unwrap();
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            ParseError::UnterminatedString { span } if *span == Span::new(open, src.len())
        ),
        "{errs:?}"
    );
}

#[test]
fn invalid_number_spans_the_digits() {
    let src = "scenario \"x\" { device d { batch = 1.2.3 } }";
    let at = src.find("1.2.3").unwrap();
    let errs = errors(src);
    assert!(
        errs.iter().any(|e| matches!(
            e,
            ParseError::InvalidNumber { text, span }
                if text == "1.2.3" && *span == Span::new(at, at + 5)
        )),
        "{errs:?}"
    );
}

#[test]
fn expected_token_spans_the_wrong_token() {
    // `device d` is missing its `{`: the parser reports it at the next
    // token and recovers at the following statement.
    let src = "scenario \"x\" { device d device e { } }";
    let at = src.rfind("device").unwrap();
    let errs = errors(src);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        matches!(
            &errs[0],
            ParseError::Expected { what: "`{`", span, .. } if *span == Span::new(at, at + 6)
        ),
        "{errs:?}"
    );
}

#[test]
fn unknown_node_kind_spans_the_word() {
    let src = "scenario \"x\" { widget w { } }";
    let at = src.find("widget").unwrap();
    let errs = errors(src);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert!(
        matches!(
            &errs[0],
            ParseError::UnknownNodeKind { word, span }
                if word == "widget" && *span == Span::new(at, at + 6)
        ),
        "{errs:?}"
    );
}

#[test]
fn missing_scenario_header_spans_the_first_token() {
    let src = "device d { }";
    let errs = errors(src);
    assert!(
        matches!(
            &errs[0],
            ParseError::MissingScenarioHeader { span } if *span == Span::new(0, 6)
        ),
        "{errs:?}"
    );
}

#[test]
fn errors_accumulate_instead_of_aborting() {
    // Three distinct problems in one file: a stray byte, a malformed
    // number, and an unknown node kind. One parse reports all of them.
    let src = "scenario \"x\" {\n  widget w { }\n  device d { batch = 1..5 }\n  $\n}";
    let errs = errors(src);
    assert!(errs.len() >= 3, "only {} errors: {errs:?}", errs.len());
    let widget = src.find("widget").unwrap();
    let number = src.find("1..5").unwrap();
    let dollar = src.find('$').unwrap();
    assert!(errs
        .iter()
        .any(|e| matches!(e, ParseError::UnknownNodeKind { span, .. } if span.lo == widget)));
    assert!(errs
        .iter()
        .any(|e| matches!(e, ParseError::InvalidNumber { span, .. } if span.lo == number)));
    assert!(errs
        .iter()
        .any(|e| matches!(e, ParseError::UnexpectedChar { span, .. } if span.lo == dollar)));
}

#[test]
fn diagnostics_render_with_line_and_caret() {
    let src = "scenario \"x\" {\n  widget w { }\n}";
    let errs = errors(src);
    let rendered = errs[0].diagnostic().render("bad.scn", src);
    assert!(
        rendered.contains("bad.scn:2:3: error: unknown node kind"),
        "{rendered}"
    );
    assert!(rendered.contains("^~~~~~"), "{rendered}");
}

#[test]
fn comments_and_recovery_do_not_leak_errors() {
    let src = "# header comment\nscenario \"ok\" { # trailing\n  device d { platform = nx }\n}\n";
    let ast = parse(src).expect("valid source");
    assert_eq!(ast.name.value, "ok");
    assert_eq!(ast.nodes.len(), 1);
    let span = ast.nodes[0].name.span;
    assert_eq!(&src[span.lo..span.hi], "d");
}
