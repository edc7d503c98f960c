//! Golden superstep outcomes of both engines.
//!
//! `fixtures/engine_golden.txt` records, for three machines
//! (`campus.hbsp`, `grid3.hbsp` and a 4-leaf two-cluster machine),
//! eight programs (the seven collectives lowered by `best_plan`, plus
//! a seeded mixed-scope exchange) and eighteen fault scripts (none,
//! `FaultPlan::random` seeds 0..16, `fixtures/straggler_ramp.faults`),
//! the simulator's outcome bit for bit — or the `Debug` text of the
//! typed error the run ended with — and the `ModelEvaluator` cost
//! report of every collective. It was captured before the two engines'
//! superstep pipelines were folded into one (see the fixture's
//! header), so any change to the superstep that moves a single bit of
//! virtual time, traffic, delivery or telemetry fails here.
//!
//! The threaded runtime is held to the same rows: every rendered field
//! is a virtual-time quantity, so a correct runtime reproduces the
//! simulator's text exactly.

use hbsp::collectives::reduce::ReduceOp;
use hbsp::collectives::schedule::{share_inits, ProcInit, ScheduleProgram, UnitId};
use hbsp::collectives::tune::best_plan;
use hbsp::collectives::CollectiveKind;
use hbsp::core::{
    topology, MachineTree, ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope,
    TreeBuilder,
};
use hbsp::obs::{Recorder, StepTrace};
use hbsp::runtime::ThreadedRuntime;
use hbsp::sim::{FaultPlan, ModelEvaluator, ProcTimeline, SimError, SimOutcome, Simulator};
use std::fmt::{Debug, Write as _};
use std::sync::Arc;

const GOLDEN: &str = include_str!("../fixtures/engine_golden.txt");

/// Words each collective moves (per pair for alltoall).
const N: u64 = 48;

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

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        xs.iter().for_each(|x| self.u64(x.to_bits()));
    }

    fn u64s(&mut self, xs: &[u64]) {
        self.u64(xs.len() as u64);
        xs.iter().for_each(|&x| self.u64(x));
    }
}

/// splitmix64, for the mixed program's per-step decisions.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The mixed program of `tests/engines_agree.rs`: each superstep picks
/// a sync scope from `(seed, step)`, then every processor posts a
/// seeded number of seeded-size messages inside its cluster at that
/// scope and charges seeded work.
struct Mixed {
    rounds: usize,
    seed: u64,
}

impl SpmdProgram for Mixed {
    type State = u64;

    fn init(&self, _env: &ProcEnv) -> u64 {
        0x6a09_e667_f3bc_c908
    }

    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest ^= (m.src.0 as u64) << 40 | (m.tag as u64) << 20 | m.payload.len() as u64;
            *digest = mix(*digest);
        }
        if step == self.rounds {
            return StepOutcome::Done;
        }
        let height = env.tree.height();
        let scope = SyncScope::Level(1 + (mix(self.seed ^ step as u64) % height as u64) as u32);
        let cluster = env
            .tree
            .cluster_of(env.pid, scope.level())
            .expect("scope level never exceeds the tree height");
        let peers: Vec<ProcId> = env
            .tree
            .subtree_leaves(cluster)
            .into_iter()
            .map(|l| env.tree.node(l).proc_id().expect("leaves are procs"))
            .collect();
        let base = mix(self.seed ^ ((step as u64) << 24) ^ env.pid.0 as u64);
        for j in 0..base % 4 {
            let h = mix(base ^ (j << 8));
            let dst = peers[(h % peers.len() as u64) as usize];
            let len = (mix(h) % 96) as usize;
            ctx.send(dst, (h % 17) as u32, &vec![(h >> 32) as u8; len]);
        }
        ctx.charge((base % 1000) as f64 / 8.0);
        StepOutcome::Continue(scope)
    }
}

/// Deterministic payload words.
fn words(seed: u64, len: usize) -> Vec<u32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 32) as u32
        })
        .collect()
}

/// `kind` moving `N` words on `tree`, lowered by `best_plan`, with
/// seeded inputs in the shapes the scheduler's job lowering uses.
fn collective(tree: &MachineTree, kind: CollectiveKind) -> ScheduleProgram {
    let plan = best_plan(tree, kind, N).expect("every collective lowers");
    let p = tree.num_procs();
    let mut init = vec![ProcInit::default(); p];
    let mut op = None;
    match kind {
        CollectiveKind::Gather | CollectiveKind::Allgather => {
            init = share_inits(tree, &words(7, N as usize), plan.workload);
        }
        CollectiveKind::Broadcast | CollectiveKind::Scatter => {
            let root = plan.root.expect("rooted collective resolves a root");
            init[root.rank()]
                .units
                .push((UnitId::new(0, N as u32), words(7, N as usize)));
        }
        CollectiveKind::Alltoall => {
            for (src, pi) in init.iter_mut().enumerate() {
                for dst in (0..p).filter(|&d| d != src) {
                    let id = (src * p + dst) as u32;
                    pi.units
                        .push((UnitId::new(id, N as u32), words(id as u64, N as usize)));
                }
            }
        }
        CollectiveKind::Reduce | CollectiveKind::Scan => {
            for (i, pi) in init.iter_mut().enumerate() {
                pi.acc = Some(words(i as u64, N as usize));
            }
            op = Some(ReduceOp::Sum);
        }
    }
    ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op)
}

/// The three machines, in fixture order.
fn machines() -> Vec<(&'static str, Arc<MachineTree>)> {
    let file = |name: &str| {
        let dsl = std::fs::read_to_string(format!("machines/{name}.hbsp")).expect("machine file");
        Arc::new(topology::parse(&dsl).expect("machine parses"))
    };
    let two_cluster = TreeBuilder::two_level(
        1.0,
        500.0,
        &[
            (40.0, vec![(1.0, 1.0), (2.0, 0.5)]),
            (60.0, vec![(1.5, 0.7), (3.0, 0.3)]),
        ],
    )
    .expect("valid machine");
    vec![
        ("campus", file("campus")),
        ("grid3", file("grid3")),
        ("two-cluster", Arc::new(two_cluster)),
    ]
}

/// The fault scripts, in fixture order.
fn plans(tree: &MachineTree) -> Vec<(String, FaultPlan)> {
    let mut out = vec![("none".to_string(), FaultPlan::new())];
    for seed in 0..16 {
        out.push((format!("random{seed}"), FaultPlan::random(seed, tree)));
    }
    let ramp = std::fs::read_to_string("fixtures/straggler_ramp.faults").expect("ramp fixture");
    out.push((
        "straggler_ramp".to_string(),
        FaultPlan::parse(&ramp).expect("ramp parses"),
    ));
    out
}

/// Which engine renders the rows.
#[derive(Clone, Copy)]
enum Engine {
    Simulator,
    Threads,
}

/// A run's result and the step stream its `Recorder` saw.
type Run<S> = (Result<(SimOutcome, Vec<S>), SimError>, Vec<StepTrace>);

/// Run `prog` traced, with a `Recorder` attached, on `engine`.
fn run<P: SpmdProgram>(
    engine: Engine,
    tree: &Arc<MachineTree>,
    plan: &FaultPlan,
    prog: &P,
) -> Run<P::State> {
    let rec = Arc::new(Recorder::new());
    let res = match engine {
        Engine::Simulator => Simulator::new(Arc::clone(tree))
            .trace(true)
            .faults(plan.clone())
            .probe(rec.clone())
            .run_with_states(prog),
        Engine::Threads => ThreadedRuntime::new(Arc::clone(tree))
            .trace(true)
            .faults(plan.clone())
            .probe(rec.clone())
            .run_with_states(prog)
            .map(|(o, s)| (o.virtual_outcome, s)),
    };
    (res, rec.steps())
}

fn bits(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{:016x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

fn timelines_hash(tls: &[ProcTimeline]) -> u64 {
    let mut h = Fnv::new();
    for tl in tls {
        h.u64(tl.pid.0 as u64);
        for s in &tl.spans {
            h.bytes(format!("{:?}", s.kind).as_bytes());
            h.u64(s.start.to_bits());
            h.u64(s.end.to_bits());
        }
    }
    h.0
}

/// Hash of the virtual-time columns of a recorded step stream (the
/// wall-clock marks only the threaded runtime fills are left out).
fn record_hash(steps: &[StepTrace]) -> u64 {
    let mut h = Fnv::new();
    for s in steps {
        h.u64(s.step as u64);
        h.u64(s.barrier.map_or(u64::MAX, |l| l as u64));
        h.u64(s.hrelation.to_bits());
        for col in [
            s.starts(),
            s.compute_done(),
            s.send_done(),
            s.finish(),
            s.releases(),
            s.work(),
        ] {
            h.f64s(col);
        }
        h.u64s(s.sent_words());
        h.u64s(s.words_by_level());
        h.u64s(s.messages_by_level());
    }
    h.0
}

/// One run as golden lines (format in the fixture's header).
fn render_run<P: SpmdProgram>(
    out: &mut String,
    engine: Engine,
    label: &str,
    tree: &Arc<MachineTree>,
    plan: &FaultPlan,
    prog: &P,
) where
    P::State: Debug,
{
    let (res, steps) = run(engine, tree, plan, prog);
    let (o, states) = match res {
        Ok(ok) => ok,
        Err(e) => {
            writeln!(out, "row {label} err {e:?}").unwrap();
            return;
        }
    };
    let mut sh = Fnv::new();
    sh.bytes(format!("{states:?}").as_bytes());
    writeln!(
        out,
        "row {label} ok total={:016x} delivered={} states={:016x} timelines={:016x} record={:016x}",
        o.total_time.to_bits(),
        o.messages_delivered,
        sh.0,
        timelines_hash(o.timelines.as_deref().expect("traced run")),
        record_hash(&steps),
    )
    .unwrap();
    writeln!(out, "  finish {}", bits(&o.proc_finish)).unwrap();
    for s in &o.steps {
        let traffic: Vec<String> = s
            .traffic
            .iter()
            .map(|t| format!("{}/{}", t.words, t.messages))
            .collect();
        writeln!(
            out,
            "  step {} scope={:?} start={:016x} finish={:016x} release={:016x} h={:016x} work={:016x} traffic={}",
            s.step,
            s.scope,
            s.start_min.to_bits(),
            s.finish_max.to_bits(),
            s.release_max.to_bits(),
            s.hrelation.to_bits(),
            s.work_units.to_bits(),
            traffic.join(","),
        )
        .unwrap();
    }
}

/// Every engine row, in fixture order: per machine, per program, per
/// fault script.
fn render_rows(engine: Engine) -> String {
    let mut out = String::new();
    for (mname, tree) in machines() {
        let progs: Vec<(String, ScheduleProgram)> = CollectiveKind::ALL
            .into_iter()
            .map(|k| (k.name().to_string(), collective(&tree, k)))
            .collect();
        let mixed = Mixed {
            rounds: 8,
            seed: 0x5eed,
        };
        for (fname, plan) in plans(&tree) {
            for (pname, prog) in &progs {
                let label = format!("{mname} {pname} {fname}");
                render_run(&mut out, engine, &label, &tree, &plan, prog);
            }
            let label = format!("{mname} mixed {fname}");
            render_run(&mut out, engine, &label, &tree, &plan, &mixed);
        }
    }
    out
}

/// The model evaluator's cost report of every collective on every
/// machine.
fn render_model() -> String {
    let mut out = String::new();
    for (mname, tree) in machines() {
        for kind in CollectiveKind::ALL {
            let prog = collective(&tree, kind);
            let report = ModelEvaluator::new(Arc::clone(&tree))
                .run(&prog)
                .expect("model evaluation succeeds");
            let steps: Vec<String> = report
                .steps()
                .iter()
                .map(|s| {
                    format!(
                        "{}:{:016x}:{:016x}:{:016x}:{:016x}",
                        s.level,
                        s.w.to_bits(),
                        s.h.to_bits(),
                        s.comm.to_bits(),
                        s.sync.to_bits()
                    )
                })
                .collect();
            writeln!(
                out,
                "model {mname} {} total={:016x} steps={}",
                kind.name(),
                report.total().to_bits(),
                steps.join(",")
            )
            .unwrap();
        }
    }
    out
}

/// The fixture's lines for one section (`row`-and-indented lines, or
/// `model` lines).
fn golden(section: &str) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| match section {
            "model" => l.starts_with("model "),
            _ => !l.starts_with("model "),
        })
        .collect()
}

fn assert_lines(what: &str, got_text: &str, want: &[&str]) {
    let got: Vec<&str> = got_text.lines().collect();
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: golden line {} of the section differs", k + 1);
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
fn simulator_matches_the_golden_rows() {
    assert_lines(
        "simulator",
        &render_rows(Engine::Simulator),
        &golden("rows"),
    );
}

#[test]
fn threaded_runtime_matches_the_golden_rows() {
    assert_lines("threads", &render_rows(Engine::Threads), &golden("rows"));
}

#[test]
fn model_evaluator_matches_the_golden_cost_reports() {
    assert_lines("model", &render_model(), &golden("model"));
}
