//! Golden drain of the shipped 1000-job graph.
//!
//! `fixtures/sched_golden.txt` records, for `fixtures/jobs_1000.jobs`
//! drained on the simulator on `campus.hbsp` and `grid3.hbsp`, batched
//! and serial, every placement the scheduler made (batch, node, leaves,
//! root), every price it predicted (as f64 bits), a hash of every job's
//! final states, each batch's members with predicted and observed cost,
//! and the makespan. It was captured before the admission loop was
//! reworked (see the fixture's header), so any change to how jobs are
//! admitted, priced or lowered that moves a single bit fails here.

use hbsp::bench::jobfile;
use hbsp::collectives::schedule::ScheduleState;
use hbsp::core::topology;
use hbsp::sched::{Engine, RunOptions, SchedReport, Scheduler};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("../fixtures/sched_golden.txt");

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u32) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Hash of a job's final states in carved-rank order: every held unit
/// (offset, length, items), the accumulator, and any decode error.
fn states_hash(states: &[ScheduleState]) -> u64 {
    let mut h = Fnv::new();
    for s in states {
        h.bytes(b"proc");
        for piece in s.pieces() {
            h.word(piece.offset);
            h.word(piece.items.len() as u32);
            piece.items.iter().for_each(|&w| h.word(w));
        }
        match s.accumulator() {
            Some(acc) => {
                h.bytes(b"acc");
                h.word(acc.len() as u32);
                acc.iter().for_each(|&w| h.word(w));
            }
            None => h.bytes(b"noacc"),
        }
        if let Some(e) = s.error() {
            h.bytes(format!("{e:?}").as_bytes());
        }
    }
    h.0
}

fn ids<T: ToString>(xs: impl Iterator<Item = T>) -> String {
    xs.map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

/// The report as golden lines (format in the fixture's header).
fn render(out: &mut String, machine: &str, mode: &str, rep: &SchedReport) {
    writeln!(out, "run {machine} {mode}").unwrap();
    for j in &rep.jobs {
        let root = j.root.map_or("-".to_string(), |r| r.rank().to_string());
        writeln!(
            out,
            "job {} batch={} node={} leaves={} root={root} predicted={:016x} states={:016x}",
            j.id.0,
            j.batch,
            j.node.index(),
            ids(j.leaves.iter().map(|p| p.rank())),
            j.predicted.to_bits(),
            states_hash(&j.states),
        )
        .unwrap();
    }
    for b in &rep.batches {
        writeln!(
            out,
            "batch {} jobs={} predicted={:016x} observed={:016x}",
            b.index,
            ids(b.jobs.iter().map(|j| j.0)),
            b.predicted.to_bits(),
            b.observed().to_bits(),
        )
        .unwrap();
    }
    writeln!(out, "makespan {:016x}", rep.total_time.to_bits()).unwrap();
}

/// The simulator drains of the 1000-job graph, rendered in fixture
/// order: campus then grid3, batched then serial.
fn drains() -> String {
    let text = std::fs::read_to_string("fixtures/jobs_1000.jobs").expect("job graph");
    let (parsed, errors) = jobfile::parse(&text);
    assert!(errors.is_empty(), "{errors:?}");
    let mut out = String::new();
    for machine in ["campus", "grid3"] {
        let path = format!("machines/{machine}.hbsp");
        let dsl = std::fs::read_to_string(&path).expect("machine file");
        let tree = Arc::new(topology::parse(&dsl).expect("machine parses"));
        let mut sched = Scheduler::new(tree);
        for pj in &parsed {
            sched.submit(pj.job.clone());
        }
        for (mode, serial) in [("batched", false), ("serial", true)] {
            let rep = sched
                .run(&RunOptions {
                    engine: Engine::Simulator,
                    serial,
                    adapt: None,
                })
                .expect("graph drains");
            assert!(rep.clean());
            render(&mut out, machine, mode, &rep);
        }
    }
    out
}

#[test]
fn simulator_drain_matches_the_golden_placements_prices_and_states() {
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    let got_text = drains();
    let got: Vec<&str> = got_text.lines().collect();
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "golden line {} differs", k + 1);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "drains rendered {} golden lines, fixture has {}",
        got.len(),
        want.len()
    );
}
