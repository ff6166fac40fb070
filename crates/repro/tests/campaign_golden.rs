//! The paper campaign at the quick accuracy scale, pinned byte for byte.
//!
//! `golden/campaign_quick.txt` is the full campaign's stdout with
//! `AccuracyConfig::quick()`. A table that changes on purpose regenerates
//! it (see the verify notes in the repository) and CHANGES.md explains
//! each changed row. On a mismatch the actual output lands under the
//! target directory for review.

use std::path::PathBuf;

use trtsim_repro::campaign::{select, Campaign, SECTIONS};
use trtsim_repro::exp_accuracy::AccuracyConfig;

const GOLDEN: &str = include_str!("golden/campaign_quick.txt");

fn run(names: &[&str]) -> String {
    let sections = select(names, &[]).expect("known sections").sections;
    let mut out = Vec::new();
    Campaign::new(AccuracyConfig::quick())
        .run(&sections, None, &mut out)
        .expect("campaign runs");
    String::from_utf8(out).expect("utf-8 output")
}

/// `(name, text)` per section, the header line included in the text.
fn sections(text: &str) -> Vec<(&str, &str)> {
    let mut headers = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        let name = line
            .strip_prefix("== ")
            .and_then(|l| l.strip_suffix(" ==\n"));
        if let Some(name) = name {
            headers.push((offset, name));
        }
        offset += line.len();
    }
    let ends = headers.iter().skip(1).map(|h| h.0).chain([text.len()]);
    headers
        .iter()
        .zip(ends)
        .map(|(&(start, name), end)| (name, &text[start..end]))
        .collect()
}

/// Panics naming the first differing section and its first differing line,
/// after saving `actual` under the target directory.
fn assert_matches(label: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    let saved = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{label}.txt"));
    std::fs::write(&saved, actual).expect("save actual output");
    let (want, got) = (sections(expected), sections(actual));
    for k in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(k), got.get(k));
        if w == g {
            continue;
        }
        let name = w.or(g).map_or("?", |s| s.0);
        let (w_text, g_text) = (w.map_or("", |s| s.1), g.map_or("", |s| s.1));
        let (line, w_line, g_line) = w_text
            .lines()
            .map(Some)
            .chain(std::iter::repeat(None))
            .zip(g_text.lines().map(Some).chain(std::iter::repeat(None)))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| (i + 1, a.unwrap_or("<none>"), b.unwrap_or("<none>")))
            .expect("sections differ");
        panic!(
            "{label}: section `{name}` differs from the golden at its line {line}\n  \
             golden: {w_line}\n  actual: {g_line}\nfull output saved to {}",
            saved.display()
        );
    }
    panic!(
        "{label}: output differs from the golden; saved to {}",
        saved.display()
    );
}

#[test]
fn quick_campaign_matches_its_golden() {
    assert_matches("campaign_quick", GOLDEN, &run(&[]));
}

/// Each section alone, on a fresh campaign (cold farm), prints exactly its
/// slice of the golden — which the test above pins to the full run (warm
/// farm). So no section's bytes depend on what ran before it.
#[test]
fn each_section_alone_matches_its_slice_of_the_golden() {
    let golden = sections(GOLDEN);
    let names: Vec<&str> = golden.iter().map(|s| s.0).collect();
    let registry: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
    assert_eq!(names, registry, "golden sections vs registry");
    for (name, slice) in golden {
        assert_matches(&format!("campaign_quick_{name}"), slice, &run(&[name]));
    }
}
