//! The `collectives` workload: the seven collectives in a fixed cycle on
//! `machines/grid3.hbsp`, each moving n = 256 words, lowered once in
//! set-up with `best_plan` and run on the threaded runtime with an armed
//! `FlightRecorder` through `hbsp_collectives::schedule::execute`.

use crate::trace::Tracer;
use crate::util::{self, ab_ratio, median_us, timed, Rng};
use crate::{Op, SetupError, Workload};
use hbsp::collectives::reduce::ReduceOp;
use hbsp::collectives::schedule::{execute, share_inits, ProcInit, ScheduleState};
use hbsp::collectives::tune::{best_plan, PlanChoice};
use hbsp::collectives::{
    decode_bundle, encode_bundle, shares_for, CollectiveKind, Piece, ScheduleProgram, UnitId,
};
use hbsp::core::{
    topology, MachineTree, ProcEnv, SpmdContext, SpmdProgram, StepOutcome, SyncScope,
};
use hbsp::lib::codec;
use hbsp::lib::{ExecOutcome, Executor};
use hbsp::obs::{FlightRecorder, Probe, StepTrace};
use hbsp::runtime::{BarrierKind, ThreadedRuntime};
use hbsp::sim::Simulator;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const N: u64 = 256;

/// Initial holdings for `kind` moving `n` words under `plan`, with the
/// same shapes the scheduler's job lowering uses, and the operator the
/// schedule folds with.
pub fn inits(
    tree: &MachineTree,
    kind: CollectiveKind,
    n: u64,
    plan: &PlanChoice,
    rng: &mut Rng,
) -> (Vec<ProcInit>, Option<ReduceOp>) {
    let p = tree.num_procs();
    let len = n as usize;
    let mut init = vec![ProcInit::default(); p];
    let mut op = None;
    match kind {
        CollectiveKind::Gather | CollectiveKind::Allgather => {
            init = share_inits(tree, &rng.words(len), plan.workload);
        }
        CollectiveKind::Broadcast | CollectiveKind::Scatter => {
            let root = plan.root.expect("rooted collective resolves a root");
            init[root.rank()]
                .units
                .push((UnitId::new(0, n as u32), rng.words(len)));
        }
        CollectiveKind::Alltoall => {
            for (src, pi) in init.iter_mut().enumerate() {
                for dst in (0..p).filter(|&d| d != src) {
                    pi.units.push((
                        UnitId::new((src * p + dst) as u32, n as u32),
                        rng.words(len),
                    ));
                }
            }
        }
        CollectiveKind::Reduce | CollectiveKind::Scan => {
            for pi in init.iter_mut() {
                pi.acc = Some(rng.words(len));
            }
            op = Some(ReduceOp::Sum);
        }
    }
    (init, op)
}

/// True when `state` holds exactly `want` at item offsets
/// `off..off + want.len()`, from however many pieces.
fn holds(state: &ScheduleState, off: usize, want: &[u32]) -> bool {
    let mut got: Vec<Option<u32>> = vec![None; want.len()];
    for piece in state.pieces() {
        for (k, &v) in piece.items.iter().enumerate() {
            let at = piece.offset as usize + k;
            if (off..off + want.len()).contains(&at) {
                got[at - off] = Some(v);
            }
        }
    }
    got.iter().zip(want).all(|(g, w)| *g == Some(*w))
}

/// Check final states against the sequential expectation of `kind`.
fn data_ok(
    tree: &MachineTree,
    kind: CollectiveKind,
    plan: &PlanChoice,
    init: &[ProcInit],
    states: &[ScheduleState],
) -> Result<(), String> {
    let p = tree.num_procs();
    let all_items = || -> Vec<u32> {
        let mut items = vec![0u32; N as usize];
        for pi in init {
            for (uid, words) in &pi.units {
                items[uid.offset as usize..uid.offset as usize + words.len()]
                    .copy_from_slice(words);
            }
        }
        items
    };
    let sums = |upto: usize| -> Vec<u32> {
        let mut acc = vec![0u32; N as usize];
        for pi in &init[..=upto] {
            for (a, &v) in acc.iter_mut().zip(pi.acc.as_deref().unwrap_or(&[])) {
                *a = a.wrapping_add(v);
            }
        }
        acc
    };
    let root = plan.root.map(|r| r.rank());
    let ok = match kind {
        CollectiveKind::Gather => holds(&states[root.expect("gather has a root")], 0, &all_items()),
        CollectiveKind::Broadcast | CollectiveKind::Allgather => {
            let items = all_items();
            states.iter().all(|s| holds(s, 0, &items))
        }
        CollectiveKind::Scatter => {
            let shares: Vec<Piece> = shares_for(tree, &all_items(), plan.workload);
            states
                .iter()
                .zip(&shares)
                .all(|(s, share)| holds(s, share.offset as usize, &share.items))
        }
        CollectiveKind::Alltoall => (0..p).all(|dst| {
            (0..p).filter(|&src| src != dst).all(|src| {
                let uid = UnitId::new((src * p + dst) as u32, N as u32);
                let sent = &init[src]
                    .units
                    .iter()
                    .find(|(u, _)| *u == uid)
                    .expect("unit sent")
                    .1;
                states[dst]
                    .pieces()
                    .iter()
                    .any(|pc| pc.offset == uid.offset && &pc.items == sent)
            })
        }),
        CollectiveKind::Reduce => {
            let r = root.expect("reduce has a root");
            states[r].accumulator() == Some(&sums(p - 1)[..])
        }
        CollectiveKind::Scan => (0..p).all(|j| states[j].accumulator() == Some(&sums(j)[..])),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{kind}: result differs from the sequential expectation"
        ))
    }
}

struct Lowered {
    kind: CollectiveKind,
    plan: PlanChoice,
    prog: ScheduleProgram,
    /// Simulator reference: final states and model time.
    ref_states: Vec<ScheduleState>,
    ref_time: f64,
}

pub struct Collectives {
    tree: Arc<MachineTree>,
    ops: Vec<Lowered>,
    exec: Executor,
    flight: Arc<FlightRecorder>,
    parse_ms: f64,
    lower_ms: f64,
}

impl Collectives {
    pub fn setup(seed: u64) -> Result<Collectives, SetupError> {
        let text = util::read("machines/grid3.hbsp")?;
        let (tree, parse) = timed(|| topology::parse(&text));
        let tree = Arc::new(tree.map_err(|e| format!("machines/grid3.hbsp: {e}"))?);
        let mut rng = Rng(seed);
        let mut lower = Duration::ZERO;
        let sim = Simulator::new(tree.clone());
        let mut ops = Vec::new();
        for kind in CollectiveKind::ALL {
            let (plan, t) = timed(|| best_plan(&tree, kind, N));
            lower += t;
            let plan = plan.map_err(|e| format!("{kind}: {e}"))?;
            let (init, op) = inits(&tree, kind, N, &plan, &mut rng);
            let prog =
                ScheduleProgram::new(Arc::new(plan.schedule.clone()), Arc::new(init.clone()), op);
            let (out, ref_states) = sim
                .run_with_states(&prog)
                .map_err(|e| SetupError::Check(format!("{kind} on the simulator: {e}")))?;
            hbsp::collectives::schedule::check_states(&ref_states)
                .map_err(|e| SetupError::Check(format!("{kind} on the simulator: {e}")))?;
            data_ok(&tree, kind, &plan, &init, &ref_states).map_err(SetupError::Check)?;
            ops.push(Lowered {
                kind,
                plan,
                prog,
                ref_states,
                ref_time: out.total_time,
            });
        }
        let flight = Arc::new(FlightRecorder::new());
        let exec = Executor::threads(tree.clone()).probe(flight.clone());
        // Warm up: one pass of the cycle, its outputs checked too.
        for l in &ops {
            let (out, states) = execute(&exec, &l.prog)
                .map_err(|e| SetupError::Check(format!("{}: {e}", l.kind)))?;
            if states != l.ref_states || out.total_time() != l.ref_time {
                return Err(SetupError::Check(format!(
                    "{}: threads differ from the simulator",
                    l.kind
                )));
            }
        }
        Ok(Collectives {
            tree,
            ops,
            exec,
            flight,
            parse_ms: util::ms(parse),
            lower_ms: util::ms(lower),
        })
    }
}

/// The counts an engine reports for one run.
pub fn counts(op: &mut Op, out: &ExecOutcome) {
    op.supersteps = out.sim.num_steps() as u64;
    op.messages = out.sim.messages_delivered;
    for (l, w) in op.words.iter_mut().enumerate() {
        *w = out.sim.words_at_level(l as u32 + 1);
    }
}

impl Workload for Collectives {
    fn cycle(&self) -> usize {
        self.ops.len()
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> Op {
        let l = &self.ops[i as usize % self.ops.len()];
        let (res, wall) =
            timed(|| tr.span("collectives.execute", i, || execute(&self.exec, &l.prog)));
        let mut op = Op {
            wall,
            units: 1,
            ..Op::default()
        };
        match res {
            Ok((out, states)) => {
                counts(&mut op, &out);
                op.vt = out.total_time();
                op.err = (l.plan.cost - op.vt).abs() / op.vt;
                op.failed = u64::from(states != l.ref_states || op.vt != l.ref_time);
                tr.count("supersteps", op.supersteps as f64);
                tr.count("messages", op.messages as f64);
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", l.kind);
                op.failed = 1;
            }
        }
        op
    }

    fn setup_parts(&self) -> (f64, f64) {
        (self.parse_ms, self.lower_ms)
    }

    fn layers(&mut self, tr: &Tracer, ops: &[Op], m: &mut BTreeMap<&'static str, f64>) {
        wall_columns(&self.flight.snapshot(), m);
        words_per_s(ops, m);
        runtime_micro(tr, &self.tree, m);
        let payload = util::Rng(1).words(N as usize);
        codec_rates(tr, &payload, m);
        engine_ratios(
            tr,
            &self.tree,
            40,
            |rt| {
                for l in &self.ops {
                    rt.run_with_states(&l.prog).expect("collective runs");
                }
            },
            |sim| {
                for l in &self.ops {
                    sim.run_with_states(&l.prog).expect("collective runs");
                }
            },
            m,
        );
    }
}

/// Same-run ratios over one batch of work, each side run `reps` times
/// alternately: hierarchical over central barrier, armed
/// `FlightRecorder` over the no-op probe, and threads over simulator.
pub fn engine_ratios(
    tr: &Tracer,
    tree: &Arc<MachineTree>,
    reps: usize,
    on_threads: impl Fn(&ThreadedRuntime),
    on_sim: impl Fn(&Simulator),
    m: &mut BTreeMap<&'static str, f64>,
) {
    let hier = ThreadedRuntime::new(tree.clone()).barrier(BarrierKind::Hierarchical);
    let central = ThreadedRuntime::new(tree.clone()).barrier(BarrierKind::Central);
    let armed =
        ThreadedRuntime::new(tree.clone()).probe(Arc::new(FlightRecorder::new()) as Arc<dyn Probe>);
    let noop = ThreadedRuntime::new(tree.clone()).probe(hbsp::obs::noop());
    let sim = Simulator::new(tree.clone());
    let threads = |rt: &ThreadedRuntime| timed(|| on_threads(rt)).1;
    tr.span("runtime.ratios", 0, || {
        m.insert(
            "runtime.hier_over_central",
            ab_ratio(reps, || threads(&hier), || threads(&central)),
        );
        m.insert(
            "obs.probe_tax",
            ab_ratio(reps, || threads(&armed), || threads(&noop)),
        );
        m.insert(
            "runtime.threads_over_sim",
            ab_ratio(reps, || threads(&hier), || timed(|| on_sim(&sim)).1),
        );
    });
}

/// Mean per-processor body time and barrier wait (leader done − body
/// end) over the flight recorder's retained steps, in µs.
pub fn wall_columns(steps: &[StepTrace], m: &mut BTreeMap<&'static str, f64>) {
    let (mut body, mut wait) = (Vec::new(), Vec::new());
    for s in steps {
        if let Some(w) = s.wall() {
            for (&b0, &b1) in w.body_start_ns.iter().zip(w.body_end_ns) {
                body.push(b1.saturating_sub(b0) as f64 / 1e3);
                wait.push(w.leader_done_ns.saturating_sub(b1) as f64 / 1e3);
            }
        }
    }
    m.insert("runtime.body_us", util::mean(&body));
    m.insert("runtime.barrier_wait_us", util::mean(&wait));
}

/// Words the engine moved per wall second of the traced operations.
pub fn words_per_s(ops: &[Op], m: &mut BTreeMap<&'static str, f64>) {
    let words: u64 = ops.iter().map(|o| o.words.iter().sum::<u64>()).sum();
    let secs: f64 = ops.iter().map(|o| o.wall.as_secs_f64()).sum();
    m.insert(
        "runtime.words_per_s",
        words as f64 / secs.max(f64::MIN_POSITIVE),
    );
}

/// A program that is done at step 0, or after `steps` empty global
/// supersteps.
pub struct Empty {
    pub steps: usize,
}

impl SpmdProgram for Empty {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _s: &mut (),
        _ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step >= self.steps {
            StepOutcome::Done
        } else {
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
}

/// Thread start/join and the cost of one empty superstep on `tree`.
pub fn runtime_micro(tr: &Tracer, tree: &Arc<MachineTree>, m: &mut BTreeMap<&'static str, f64>) {
    const STEPS: usize = 50;
    let rt = ThreadedRuntime::new(tree.clone());
    let spawn = tr.span("runtime.spawn", 0, || {
        median_us(60, || {
            rt.run(&Empty { steps: 0 }).expect("empty program runs");
        })
    });
    let stepped = tr.span("runtime.empty_steps", 0, || {
        median_us(30, || {
            rt.run(&Empty { steps: STEPS }).expect("empty program runs");
        })
    });
    m.insert("runtime.spawn_us", spawn);
    m.insert("runtime.empty_step_us", (stepped - spawn) / STEPS as f64);

    // The probe tax where it is known to be worst: empty supersteps on
    // two processors, armed flight recorder against the no-op probe.
    let pair = Arc::new(
        hbsp::core::TreeBuilder::two_level(1.0, 50.0, &[(10.0, vec![(1.0, 1.0); 2])])
            .expect("valid machine"),
    );
    let armed =
        ThreadedRuntime::new(pair.clone()).probe(Arc::new(FlightRecorder::new()) as Arc<dyn Probe>);
    let noop = ThreadedRuntime::new(pair).probe(hbsp::obs::noop());
    let empty = Empty { steps: 200 };
    let tax = tr.span("obs.probe_tax_p2", 0, || {
        ab_ratio(
            40,
            || armed.run(&empty).expect("empty program runs").wall,
            || noop.run(&empty).expect("empty program runs").wall,
        )
    });
    m.insert("obs.probe_tax_p2", tax);
}

/// Codec throughput at a workload's payload size: `encode_u32s`, and
/// `encode_bundle` / `decode_bundle` of the payload split in two pieces.
pub fn codec_rates(tr: &Tracer, payload: &[u32], m: &mut BTreeMap<&'static str, f64>) {
    let half = payload.len() / 2;
    let pieces = vec![
        Piece {
            offset: 0,
            items: payload[..half].to_vec(),
        },
        Piece {
            offset: half as u32,
            items: payload[half..].to_vec(),
        },
    ];
    let reps = (4_000_000 / payload.len().max(1)).clamp(20, 20_000);
    let bytes = (payload.len() * 4) as f64;
    let enc = tr.span("hbsplib.codec_encode", 0, || {
        median_us(reps, || {
            std::hint::black_box(codec::encode_u32s(std::hint::black_box(payload)));
            std::hint::black_box(encode_bundle(std::hint::black_box(&pieces)));
        })
    });
    let bundle = encode_bundle(&pieces);
    let dec = tr.span("hbsplib.codec_decode", 0, || {
        median_us(reps, || {
            let back = decode_bundle(std::hint::black_box(&bundle)).expect("bundle decodes");
            std::hint::black_box(back);
        })
    });
    assert_eq!(
        decode_bundle(&bundle).expect("bundle decodes"),
        pieces,
        "codec round trip"
    );
    // Encode moves the payload twice (plain and bundled), decode once.
    m.insert("hbsplib.codec_encode_mb_s", 2.0 * bytes / enc);
    m.insert("hbsplib.codec_decode_mb_s", bytes / dec);
}
