//! Figures 7-12 at `reproduce --quick` scale, on virtual time. Each
//! system's time must equal its line of `src/bin/reproduce_quick.txt`
//! to the nanosecond, and each figure must keep the paper's shape: FFS
//! fastest, DisCFS within 15 % of CFS-NE.
//!
//! The times depend on the disk, link and policy-charge models and on
//! the request stream, not on the host. A change that means to move
//! one edits that file by hand, from the "got" line a failure prints,
//! and says why. One test per figure, so the six run in parallel.

use bench_harness::{run_bonnie_figure, run_search, Figure, Measurement, Scale, Shape, SystemKind};
use ffs::FsConfig;

/// One `fig<N> <system> <nanoseconds>` line per measurement.
const GOLDEN: &str = include_str!("../src/bin/reproduce_quick.txt");

/// Runs figure `number` on all three systems through `run` and holds
/// it to the golden and to the paper's shape.
fn check(number: u32, run: impl Fn(SystemKind) -> Measurement) {
    let results = SystemKind::ALL.map(|kind| (kind, run(kind)));
    let prefix = format!("fig{number} ");
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|line| line.starts_with(&prefix))
        .collect();
    let got: Vec<String> = results
        .iter()
        .map(|(kind, m)| format!("fig{number} {} {}", kind.label(), m.virtual_time.as_nanos()))
        .collect();
    let mut differences = String::new();
    for (at, got) in got.iter().enumerate() {
        let expected = expected.get(at).copied().unwrap_or("(nothing)");
        println!("expected {expected}\n     got {got}");
        if expected != got {
            differences += &format!("\n  expected {expected}\n       got {got}");
        }
    }
    assert!(
        differences.is_empty() && expected.len() == got.len(),
        "figure {number}'s virtual times differ from reproduce_quick.txt \
         ({} golden lines):{differences}",
        expected.len()
    );

    let shape = Shape::of(&results);
    assert!(shape.ffs_fastest, "figure {number}: FFS is not fastest");
    assert!(
        shape.close(),
        "figure {number}: DisCFS/CFS-NE = {:.3}, outside 0.85-1.15",
        shape.ratio
    );
}

fn bonnie(number: u32, figure: Figure) {
    let size = Scale::Quick.bonnie_file_size();
    check(number, |kind| {
        run_bonnie_figure(kind, figure, size, FsConfig::standard())
    });
}

#[test]
fn figure_7_sequential_output_per_char() {
    bonnie(7, Figure::F7OutChar);
}

#[test]
fn figure_8_sequential_output_per_block() {
    bonnie(8, Figure::F8OutBlock);
}

#[test]
fn figure_9_sequential_rewrite() {
    bonnie(9, Figure::F9Rewrite);
}

#[test]
fn figure_10_sequential_input_per_char() {
    bonnie(10, Figure::F10InChar);
}

#[test]
fn figure_11_sequential_input_per_block() {
    bonnie(11, Figure::F11InBlock);
}

#[test]
fn figure_12_search() {
    let tree = Scale::Quick.search_tree();
    check(12, |kind| {
        run_search(kind, &tree, FsConfig::standard(), 128).1
    });
}
