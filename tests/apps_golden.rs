//! Golden outcomes of the three applications on both engines.
//!
//! `fixtures/apps_golden.txt` records, for three machines
//! (`campus.hbsp`, `grid3.hbsp` and a flat 4-processor machine) and
//! six application runs (the sample sort, the matrix–vector product
//! and the Jacobi stencil, each at two sizes and seeds), the model
//! time bit for bit, every superstep's h-relation, charged work and
//! traffic by level, the messages delivered, an FNV-1a hash of the
//! outputs, and the `ModelEvaluator` prediction. It was captured
//! before the applications' payload handling was rewritten (see the
//! fixture's header), so any change that moves one wire word, one unit
//! of charged work or one output bit fails here.
//!
//! The threaded runtime is held to the same rows: every rendered field
//! is a virtual-time quantity or a program output.

use hbsp::apps::matvec::MatVec;
use hbsp::apps::sort::SampleSort;
use hbsp::apps::stencil::Stencil;
use hbsp::collectives::plan::WorkloadPolicy;
use hbsp::core::{topology, MachineTree, SpmdProgram, TreeBuilder};
use hbsp::lib::predict_program;
use hbsp::runtime::ThreadedRuntime;
use hbsp::sim::{SimOutcome, Simulator};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("../fixtures/apps_golden.txt");

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Deterministic 64-bit stream (an LCG's high halves).
fn stream(seed: u64, len: usize) -> impl Iterator<Item = u64> {
    let mut state = seed | 1;
    (0..len).map(move |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    })
}

fn words(seed: u64, len: usize) -> Vec<u32> {
    stream(seed, len).map(|x| (x >> 32) as u32).collect()
}

/// Values in `[0, 1)`.
fn reals(seed: u64, len: usize) -> Vec<f64> {
    stream(seed, len)
        .map(|x| (x >> 11) as f64 / (1u64 << 53) as f64)
        .collect()
}

/// The three machines, in fixture order.
fn machines() -> Vec<(&'static str, Arc<MachineTree>)> {
    let file = |name: &str| {
        let dsl = std::fs::read_to_string(format!("machines/{name}.hbsp")).expect("machine file");
        Arc::new(topology::parse(&dsl).expect("machine parses"))
    };
    let flat4 = TreeBuilder::flat(
        1.0,
        500.0,
        &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35)],
    )
    .expect("valid machine");
    vec![
        ("campus", file("campus")),
        ("grid3", file("grid3")),
        ("flat4", Arc::new(flat4)),
    ]
}

/// Which engine renders the rows.
#[derive(Clone, Copy)]
enum Engine {
    Simulator,
    Threads,
}

/// Run `prog` on `engine`; return the outcome and the hash `out` takes
/// of the final states.
fn run<P: SpmdProgram>(
    engine: Engine,
    tree: &Arc<MachineTree>,
    prog: &P,
    out: impl Fn(&[P::State], &mut Fnv),
) -> (SimOutcome, u64) {
    let (o, states) = match engine {
        Engine::Simulator => Simulator::new(Arc::clone(tree))
            .run_with_states(prog)
            .expect("simulator run"),
        Engine::Threads => ThreadedRuntime::new(Arc::clone(tree))
            .run_with_states(prog)
            .map(|(o, s)| (o.virtual_outcome, s))
            .expect("threaded run"),
    };
    let mut h = Fnv::new();
    out(&states, &mut h);
    (o, h.0)
}

/// One application run as golden lines (format in the fixture's
/// header).
fn render<P: SpmdProgram>(
    out: &mut String,
    engine: Engine,
    label: &str,
    tree: &Arc<MachineTree>,
    prog: &P,
    hash: impl Fn(&[P::State], &mut Fnv),
) {
    let (o, outputs) = run(engine, tree, prog, hash);
    let predicted = predict_program(Arc::clone(tree), prog)
        .expect("model evaluation succeeds")
        .total();
    writeln!(
        out,
        "row {label} total={:016x} delivered={} outputs={outputs:016x} predicted={:016x}",
        o.total_time.to_bits(),
        o.messages_delivered,
        predicted.to_bits(),
    )
    .unwrap();
    for s in &o.steps {
        let traffic: Vec<String> = s
            .traffic
            .iter()
            .map(|t| format!("{}/{}", t.words, t.messages))
            .collect();
        writeln!(
            out,
            "  step {} h={:016x} work={:016x} traffic={}",
            s.step,
            s.hrelation.to_bits(),
            s.work_units.to_bits(),
            traffic.join(","),
        )
        .unwrap();
    }
}

/// Every row, in fixture order: per machine, per application, per size.
fn render_rows(engine: Engine) -> String {
    let mut out = String::new();
    for (mname, tree) in machines() {
        let root = tree.fastest_proc().rank();
        for (n, seed, wl) in [
            (3_000, 11, WorkloadPolicy::Balanced),
            (40_000, 12, WorkloadPolicy::Equal),
        ] {
            let prog = SampleSort::new(Arc::new(words(seed, n)), wl);
            render(
                &mut out,
                engine,
                &format!("{mname} sort n={n} seed={seed} {wl:?}"),
                &tree,
                &prog,
                |states, h| {
                    for s in states {
                        h.u64(s.bucket.len() as u64);
                        s.bucket.iter().for_each(|&v| h.u64(v as u64));
                    }
                },
            );
        }
        for (n, m, seed, wl) in [
            (24, 17, 21, WorkloadPolicy::Balanced),
            (160, 96, 22, WorkloadPolicy::Equal),
        ] {
            let prog = MatVec::new(
                Arc::new(reals(seed, n * m)),
                Arc::new(reals(seed ^ 0xff, m)),
                n,
                m,
                wl,
            );
            render(
                &mut out,
                engine,
                &format!("{mname} matvec {n}x{m} seed={seed} {wl:?}"),
                &tree,
                &prog,
                |states, h| states[root].y.iter().for_each(|v| h.u64(v.to_bits())),
            );
        }
        for (cells, sweeps, seed, wl) in [
            (40, 7, 31, WorkloadPolicy::Balanced),
            (600, 40, 32, WorkloadPolicy::Equal),
        ] {
            let prog = Stencil::new(Arc::new(reals(seed, cells)), sweeps, wl);
            render(
                &mut out,
                engine,
                &format!("{mname} stencil cells={cells} sweeps={sweeps} seed={seed} {wl:?}"),
                &tree,
                &prog,
                |states, h| states[root].result.iter().for_each(|v| h.u64(v.to_bits())),
            );
        }
    }
    out
}

fn assert_golden(what: &str, engine: Engine) {
    let got_text = render_rows(engine);
    let got: Vec<&str> = got_text.lines().collect();
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "{what}: golden line {} differs", k + 1);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "{what}: rendered {} lines, fixture has {}",
        got.len(),
        want.len()
    );
}

#[test]
fn simulator_matches_the_golden_apps() {
    assert_golden("simulator", Engine::Simulator);
}

#[test]
fn threaded_runtime_matches_the_golden_apps() {
    assert_golden("threads", Engine::Threads);
}
