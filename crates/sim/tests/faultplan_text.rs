//! The `FaultPlan` text format is total: on any input `parse` returns
//! a plan or an error naming its `line N`, never panics, and
//! `parse ∘ render` is the identity on every plan.
//!
//! Inputs are mutations of a corpus — the committed straggler ramp
//! and rendered `FaultPlan::random` plans — under byte flips,
//! truncations, line splices and arbitrary ASCII insertions.

use hbsp_core::{ProcId, TreeBuilder};
use hbsp_sim::{FaultPlan, SplitMix64};
use proptest::collection::vec;
use proptest::prelude::*;

const RAMP: &str = include_str!("../../../fixtures/straggler_ramp.faults");

/// The seed texts: the committed ramp, then random plans rendered for
/// machines of 4, 9 and 64 processors.
fn corpus() -> Vec<String> {
    let mut out = vec![RAMP.to_string()];
    for p in [4, 9, 64] {
        let tree = TreeBuilder::homogeneous(1.0, 100.0, p).unwrap();
        for seed in 0..16 {
            out.push(FaultPlan::random(seed, &tree).render());
        }
    }
    out
}

/// One edit of a text's bytes: `kind` picks a byte flip, a truncation,
/// a line splice from another corpus text, or an insertion of
/// arbitrary ASCII; `at` and `seed` are reduced into range.
fn apply(bytes: &mut Vec<u8>, corpus: &[String], (kind, at, seed): (u8, usize, u64)) {
    let at = at % (bytes.len() + 1);
    let mut rng = SplitMix64::new(seed);
    match kind {
        0 => {
            if at < bytes.len() {
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
        }
        1 => bytes.truncate(at),
        2 => {
            let donor = &corpus[rng.below(corpus.len() as u64) as usize];
            let lines: Vec<&str> = donor.lines().collect();
            let line = lines[rng.below(lines.len() as u64) as usize];
            let splice = format!("{line}\n");
            bytes.splice(at..at, splice.bytes());
        }
        _ => {
            let len = rng.below(17) as usize;
            let ascii: Vec<u8> = (0..len).map(|_| rng.below(128) as u8).collect();
            bytes.splice(at..at, ascii);
        }
    }
}

/// The line number an error names, if it starts with `line N:`.
fn line_of(err: &str) -> Option<usize> {
    err.strip_prefix("line ")?.split(':').next()?.parse().ok()
}

/// `raw`, or one of the extremes of its type, chosen by `sel`.
fn extreme<T: Copy>(sel: u8, raw: T, lo: T, hi: T) -> T {
    match sel % 4 {
        0 => lo,
        1 => hi,
        _ => raw,
    }
}

type FaultSpec = (u8, (u8, u32), (u8, usize), (u8, usize), f64);

/// A plan built with the public constructors from drawn specs.
fn plan_of(specs: &[FaultSpec]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(kind, (ps, pid), (ss, step), (ws, words), factor) in specs {
        let pid = ProcId(extreme(ps, pid, 0, u32::MAX));
        let step = extreme(ss, step, 0, usize::MAX);
        let words = extreme(ws, words, 0, usize::MAX);
        plan = match kind % 5 {
            0 => plan.crash(pid, step),
            1 => plan.stall(pid, step),
            2 => plan.straggle(pid, step, factor),
            3 => plan.drop_msgs(pid, step),
            _ => plan.truncate(pid, step, words),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_text_parses_or_names_its_line(
        pick in any::<usize>(),
        edits in vec((0u8..4, any::<usize>(), any::<u64>()), 1..6),
    ) {
        let corpus = corpus();
        let mut bytes = corpus[pick % corpus.len()].clone().into_bytes();
        for edit in edits {
            apply(&mut bytes, &corpus, edit);
        }
        let text = String::from_utf8_lossy(&bytes);
        match FaultPlan::parse(&text) {
            Ok(plan) => {
                prop_assert_eq!(FaultPlan::parse(&plan.render()), Ok(plan));
            }
            Err(e) => {
                let n = line_of(&e);
                prop_assert!(
                    n.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
                    "error does not name a line of the input: {e}"
                );
            }
        }
    }

    #[test]
    fn render_then_parse_is_the_identity(
        specs in vec(
            (
                0u8..5,
                (any::<u8>(), any::<u32>()),
                (any::<u8>(), any::<usize>()),
                (any::<u8>(), any::<usize>()),
                proptest::num::f64::ANY,
            ),
            0..8,
        ),
    ) {
        let plan = plan_of(&specs);
        let text = plan.render();
        let parsed = FaultPlan::parse(&text);
        prop_assert_eq!(parsed.as_ref(), Ok(&plan), "{}", text);
        prop_assert_eq!(parsed.unwrap().render(), text);
    }
}
