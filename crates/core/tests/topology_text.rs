//! The machine DSL is total: on any input `topology::parse` returns a
//! validated machine or a typed error, never panics, and `parse ∘
//! to_dsl` is the identity on every machine it accepts.
//!
//! Inputs are the committed machine files (`machines/*.hbsp` and
//! `machines/broken/*.hbsp`) under up to five edits each: byte flips,
//! truncations, line splices, arbitrary ASCII insertions and deep
//! cluster nesting.

use hbsp_core::topology::{self, MAX_DEPTH};
use hbsp_core::{MachineTree, ModelError};
use proptest::collection::vec;
use proptest::prelude::*;

const CORPUS: [&str; 7] = [
    include_str!("../../../machines/campus.hbsp"),
    include_str!("../../../machines/grid3.hbsp"),
    include_str!("../../../machines/broken/bad_c_sum.hbsp"),
    include_str!("../../../machines/broken/bad_k.hbsp"),
    include_str!("../../../machines/broken/non_unit_r.hbsp"),
    include_str!("../../../machines/broken/undegradable.hbsp"),
    include_str!("../../../machines/broken/wrong_coordinator.hbsp"),
];

/// splitmix64: the edits' own randomness, drawn from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }
}

/// One edit of a text's bytes: `kind` picks a byte flip, a truncation,
/// a line splice from another corpus text, an insertion of arbitrary
/// ASCII, or a run of nested cluster openings (up to twice
/// [`MAX_DEPTH`]) closed later in the text; `at` and `seed` are
/// reduced into range.
fn apply(bytes: &mut Vec<u8>, (kind, at, seed): (u8, usize, u64)) {
    let at = at % (bytes.len() + 1);
    let mut rng = Rng(seed);
    match kind {
        0 => {
            if at < bytes.len() {
                bytes[at] ^= 1 + rng.below(255) as u8;
            }
        }
        1 => bytes.truncate(at),
        2 => {
            let donor = CORPUS[rng.below(CORPUS.len())];
            let lines: Vec<&str> = donor.lines().collect();
            let splice = format!("{}\n", lines[rng.below(lines.len())]);
            bytes.splice(at..at, splice.bytes());
        }
        3 => {
            let len = rng.below(17);
            let ascii: Vec<u8> = (0..len).map(|_| rng.below(128) as u8).collect();
            bytes.splice(at..at, ascii);
        }
        _ => {
            let depth = rng.below(2 * MAX_DEPTH + 1);
            let open = "cluster n (L=1) {\n".repeat(depth);
            bytes.splice(at..at, open.bytes());
            let close = at + open.len() + rng.below(bytes.len() - at - open.len() + 1);
            bytes.splice(close..close, "}\n".repeat(depth).bytes());
        }
    }
}

/// The 1-based source `(line, column)` an error points at: a syntax
/// error's own position, or the keyword of the node a model error
/// names. `None` for errors about the machine as a whole.
fn position(text: &str, err: &ModelError) -> Option<(u32, u32)> {
    let id = match err {
        ModelError::Parse { line, col, .. } => return Some((*line, *col)),
        ModelError::EmptyCluster { id }
        | ModelError::InvalidR { id, .. }
        | ModelError::InvalidL { id, .. }
        | ModelError::InvalidSpeed { id, .. }
        | ModelError::InvalidFraction { id, .. }
        | ModelError::FractionSum { id, .. } => *id,
        _ => return None,
    };
    let parsed = topology::parse_unvalidated(text).ok()?;
    let idx = parsed.tree.resolve(id).ok()?;
    parsed.spans.get(idx.index()).copied()
}

/// True if `(line, col)` lies inside `text` or just past its end.
fn in_text(text: &str, (line, col): (u32, u32)) -> bool {
    let lines: Vec<&str> = text.split('\n').collect();
    (line as usize)
        .checked_sub(1)
        .and_then(|l| lines.get(l))
        .is_some_and(|l| (1..=l.len() + 1).contains(&(col as usize)))
}

/// Errors about the machine as a whole rather than one of its nodes.
fn machine_wide(err: &ModelError) -> bool {
    matches!(
        err,
        ModelError::NoUnitR { .. }
            | ModelError::InvalidG { .. }
            | ModelError::HeightMismatch { .. }
    )
}

/// `parse(to_dsl(tree))` rebuilds `tree` node for node.
fn round_trips(tree: &MachineTree) -> Result<(), String> {
    let text = topology::to_dsl(tree);
    let again = topology::parse(&text).map_err(|e| format!("{e} in\n{text}"))?;
    let same = again.g() == tree.g()
        && again.height() == tree.height()
        && again.nodes().count() == tree.nodes().count()
        && tree.nodes().zip(again.nodes()).all(|(a, b)| {
            a.name() == b.name()
                && a.kind() == b.kind()
                && a.children() == b.children()
                && a.params() == b.params()
        });
    if same && topology::to_dsl(&again) == text {
        Ok(())
    } else {
        Err(format!("re-parsed machine differs:\n{text}"))
    }
}

#[test]
fn nesting_is_bounded_by_a_positioned_error() {
    let nest = |depth: usize| {
        format!(
            "{}proc p (r=1, speed=1)\n{}",
            "cluster c (L=1) {\n".repeat(depth),
            "}\n".repeat(depth)
        )
    };
    let deepest = topology::parse(&nest(MAX_DEPTH)).unwrap();
    assert_eq!(deepest.height() as usize, MAX_DEPTH);
    round_trips(&deepest).unwrap();
    for depth in [MAX_DEPTH + 1, 100_000] {
        match topology::parse(&nest(depth)) {
            Err(ModelError::Parse { line, .. }) => assert_eq!(line as usize, MAX_DEPTH + 1),
            other => panic!("depth {depth}: expected a parse error, got {other:?}"),
        }
    }
}

#[test]
fn numbers_too_large_for_f64_are_rejected_where_they_stand() {
    let text = "cluster c (L=1e999) {\n    proc p (r=1, speed=1)\n}\n";
    match topology::parse(text) {
        Err(ModelError::Parse { line: 1, col, .. }) => assert_eq!(col, 14),
        other => panic!("expected a parse error at 1:14, got {other:?}"),
    }
}

/// The model invariants about the machine as a whole — some machine
/// has `r = 1`, `g > 0`, a declared `k` matches the height — are
/// reported without a source position.
#[test]
#[ignore = "NoUnitR, InvalidG and HeightMismatch carry no source position (CHANGES.md FOUND)"]
fn machine_wide_errors_carry_a_position() {
    for text in CORPUS {
        if let Err(e) = topology::parse(text) {
            assert!(position(text, &e).is_some(), "{e} names no line of\n{text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_text_parses_round_trips_or_names_its_position(
        pick in any::<usize>(),
        edits in vec((0u8..5, any::<usize>(), any::<u64>()), 0..6),
    ) {
        let mut bytes = CORPUS[pick % CORPUS.len()].as_bytes().to_vec();
        for edit in edits {
            apply(&mut bytes, edit);
        }
        let text = String::from_utf8_lossy(&bytes);
        match topology::parse(&text) {
            Ok(tree) => {
                let back = round_trips(&tree);
                prop_assert!(back.is_ok(), "{}", back.unwrap_err());
            }
            Err(e) => {
                let at = position(&text, &e);
                prop_assert!(
                    machine_wide(&e) || at.is_some_and(|p| in_text(&text, p)),
                    "{e}: position {at:?} is not in the input"
                );
            }
        }
    }
}
