//! The `apps` workload: whole programs in a fixed cycle on
//! `machines/campus.hbsp`, on the threaded runtime with an armed
//! `FlightRecorder`: a sample sort of 2^18 `u32`, a 512×512 matrix–vector
//! product, a 4096-cell Jacobi stencil for 200 sweeps, and an adaptive
//! 12-round broadcast under `fixtures/straggler_ramp.faults` together
//! with its static control arm.

use crate::coll::{codec_rates, counts, engine_ratios, runtime_micro, wall_columns, words_per_s};
use crate::trace::Tracer;
use crate::util::{self, median, median_us, timed, Rng};
use crate::{Op, SetupError, Workload};
use hbsp::apps::matvec::MatVec;
use hbsp::apps::reference_jacobi;
use hbsp::apps::sort::SampleSort;
use hbsp::apps::stencil::Stencil;
use hbsp::collectives::plan::WorkloadPolicy;
use hbsp::collectives::tune::{best_plan, retune, PlanChoice};
use hbsp::collectives::{CollectiveKind, RepeatedCollective};
use hbsp::core::{topology, MachineTree, SpmdProgram};
use hbsp::lib::{
    predict_program, AdaptiveConfig, AdaptiveExecutor, AdaptiveOutcome, AdaptivePlan, Executor,
};
use hbsp::obs::{calibrate_robust, FlightRecorder};
use hbsp::sim::{FaultPlan, Simulator};
use std::collections::BTreeMap;
use std::sync::Arc;

const SORT_ITEMS: usize = 1 << 18;
const MATRIX: usize = 512;
const CELLS: usize = 4096;
const SWEEPS: usize = 200;
const BCAST_N: u64 = 256;
const ROUNDS: usize = 12;
const CFG: AdaptiveConfig = AdaptiveConfig {
    window: 2,
    drift_threshold: 0.3,
    calibration_trim: 0.25,
};

/// A program with its simulator reference: output and model time, and
/// the pure cost model's prediction.
struct App<P: SpmdProgram, T> {
    prog: P,
    /// Takes the output from the final states (the root rank given).
    out: fn(&[P::State], usize) -> T,
    expect: T,
    vt: f64,
    predicted: f64,
}

/// One arm of the adaptive run as the simulator plays it.
struct ArmRef {
    log: String,
    vt: f64,
}

pub struct Apps {
    tree: Arc<MachineTree>,
    exec: Executor,
    flight: Arc<FlightRecorder>,
    sort: App<SampleSort, Vec<u32>>,
    matvec: App<MatVec, Vec<f64>>,
    stencil: App<Stencil, Vec<f64>>,
    job: RepeatedCollective,
    faults: FaultPlan,
    adaptive: AdaptiveExecutor,
    adaptive_ref: ArmRef,
    static_ref: ArmRef,
    incumbent: PlanChoice,
    last_adaptive: Option<AdaptiveOutcome>,
    parse_ms: f64,
    lower_ms: f64,
}

fn check(what: &str) -> impl Fn(hbsp::sim::SimError) -> SetupError + '_ {
    move |e| SetupError::Check(format!("{what}: {e}"))
}

/// Simulate `prog`, take its output with `out`, and price it.
fn reference<P: SpmdProgram, T>(
    tree: &Arc<MachineTree>,
    prog: P,
    what: &str,
    out: fn(&[P::State], usize) -> T,
) -> Result<App<P, T>, SetupError> {
    let (sim, states) = Simulator::new(tree.clone())
        .run_with_states(&prog)
        .map_err(check(what))?;
    let predicted = predict_program(tree.clone(), &prog)
        .map_err(check(what))?
        .total();
    Ok(App {
        expect: out(&states, tree.fastest_proc().rank()),
        out,
        vt: sim.total_time,
        predicted,
        prog,
    })
}

impl Apps {
    pub fn setup(seed: u64) -> Result<Apps, SetupError> {
        let text = util::read("machines/campus.hbsp")?;
        let (tree, parse) = timed(|| topology::parse(&text));
        let tree = Arc::new(tree.map_err(|e| format!("machines/campus.hbsp: {e}"))?);
        let faults_text = util::read("fixtures/straggler_ramp.faults")?;
        let faults = FaultPlan::parse(&faults_text)
            .map_err(|e| format!("fixtures/straggler_ramp.faults: {e}"))?;
        let mut rng = Rng(seed);

        let items = rng.words(SORT_ITEMS);
        let sort = reference(
            &tree,
            SampleSort::new(Arc::new(items.clone()), WorkloadPolicy::Balanced),
            "sample sort",
            |s, _| s.iter().flat_map(|st| st.bucket.iter().copied()).collect(),
        )?;
        let mut sorted = items;
        sorted.sort_unstable();
        if sort.expect != sorted {
            return Err(SetupError::Check(
                "sample sort on the simulator is not sorted".into(),
            ));
        }

        let a: Vec<f64> = (0..MATRIX * MATRIX).map(|_| rng.next_f64()).collect();
        let x: Vec<f64> = (0..MATRIX).map(|_| rng.next_f64()).collect();
        let matvec = reference(
            &tree,
            MatVec::new(
                Arc::new(a),
                Arc::new(x),
                MATRIX,
                MATRIX,
                WorkloadPolicy::Balanced,
            ),
            "matvec",
            |s, root| s[root].y.clone(),
        )?;
        if matvec.expect.len() != MATRIX {
            return Err(SetupError::Check(
                "matvec on the simulator lost rows".into(),
            ));
        }

        let field: Vec<f64> = (0..CELLS).map(|_| rng.next_f64()).collect();
        let jacobi = reference_jacobi(&field, SWEEPS);
        let stencil = reference(
            &tree,
            Stencil::new(Arc::new(field), SWEEPS, WorkloadPolicy::Balanced),
            "stencil",
            |s, root| s[root].result.clone(),
        )?;
        if stencil.expect != jacobi {
            return Err(SetupError::Check(
                "stencil on the simulator differs from reference_jacobi".into(),
            ));
        }

        let job = RepeatedCollective::new(CollectiveKind::Broadcast, BCAST_N, seed);
        let (incumbent, lower) = timed(|| best_plan(&tree, CollectiveKind::Broadcast, BCAST_N));
        let incumbent = incumbent.map_err(|e| format!("broadcast: {e}"))?;
        let sim_arm =
            AdaptiveExecutor::new(Executor::simulator(tree.clone()).faults(faults.clone()))
                .config(CFG);
        let arm = |r: Result<AdaptiveOutcome, _>, what: &str| -> Result<ArmRef, SetupError> {
            let o = r.map_err(|e| SetupError::Check(format!("{what} on the simulator: {e}")))?;
            Ok(ArmRef {
                log: o.decision_log(),
                vt: o.total_time,
            })
        };
        let adaptive_ref = arm(sim_arm.run(&job, ROUNDS), "adaptive arm")?;
        let static_ref = arm(sim_arm.run_static(&job, ROUNDS), "static arm")?;
        if adaptive_ref.vt >= static_ref.vt {
            return Err(SetupError::Check(format!(
                "adaptive {} does not beat static {}",
                adaptive_ref.vt, static_ref.vt
            )));
        }

        let flight = Arc::new(FlightRecorder::new());
        let exec = Executor::threads(tree.clone()).probe(flight.clone());
        let adaptive = AdaptiveExecutor::new(exec.clone().faults(faults.clone())).config(CFG);
        let mut apps = Apps {
            tree,
            exec,
            flight,
            sort,
            matvec,
            stencil,
            job,
            faults,
            adaptive,
            adaptive_ref,
            static_ref,
            incumbent,
            last_adaptive: None,
            parse_ms: util::ms(parse),
            lower_ms: util::ms(lower),
        };
        // Warm up: one pass of the cycle, every output checked.
        let off = Tracer::new(false);
        for i in 0..apps.cycle() as u64 {
            if apps.op(i, &off).failed > 0 {
                return Err(SetupError::Check(format!(
                    "apps operation {i} failed on the threaded runtime"
                )));
            }
        }
        Ok(apps)
    }

    fn run_app<P: SpmdProgram, T: PartialEq>(
        &self,
        app: &App<P, T>,
        name: &'static str,
        i: u64,
        tr: &Tracer,
    ) -> Op {
        let (res, wall) = timed(|| tr.span(name, i, || self.exec.run(&app.prog)));
        let mut op = Op {
            wall,
            units: 1,
            ..Op::default()
        };
        match res {
            Ok((o, states)) => {
                counts(&mut op, &o);
                op.vt = o.total_time();
                op.err = (app.predicted - op.vt).abs() / op.vt;
                let root = self.tree.fastest_proc().rank();
                op.failed = u64::from((app.out)(&states, root) != app.expect || op.vt != app.vt);
            }
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                op.failed = 1;
            }
        }
        op
    }

    fn run_adaptive(&mut self, i: u64, tr: &Tracer) -> Op {
        let ((adaptive, static_arm), wall) = timed(|| {
            (
                tr.span("hbsplib.adaptive", i, || {
                    self.adaptive.run(&self.job, ROUNDS)
                }),
                tr.span("hbsplib.static", i, || {
                    self.adaptive.run_static(&self.job, ROUNDS)
                }),
            )
        });
        let mut op = Op {
            wall,
            units: 1,
            failed: 1,
            ..Op::default()
        };
        match (adaptive, static_arm) {
            (Ok(a), Ok(s)) => {
                op.vt = a.total_time;
                op.supersteps = a.decisions.iter().map(|d| d.steps as u64).sum();
                op.err = util::mean(
                    &a.decisions
                        .iter()
                        .map(|d| (d.predicted - d.observed).abs() / d.observed)
                        .collect::<Vec<_>>(),
                );
                let same = a.decision_log() == self.adaptive_ref.log
                    && s.decision_log() == self.static_ref.log
                    && a.total_time == self.adaptive_ref.vt
                    && s.total_time == self.static_ref.vt;
                op.failed = u64::from(!same || a.total_time >= s.total_time);
                tr.count("replans", a.replans as f64);
                self.last_adaptive = Some(a);
            }
            (a, s) => {
                for e in [a.err(), s.err()].into_iter().flatten() {
                    eprintln!("perfbench: adaptive broadcast: {e}");
                }
            }
        }
        op
    }
}

impl Workload for Apps {
    fn cycle(&self) -> usize {
        4
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> Op {
        match i % 4 {
            0 => self.run_app(&self.sort, "apps.sort", i, tr),
            1 => self.run_app(&self.matvec, "apps.matvec", i, tr),
            2 => self.run_app(&self.stencil, "apps.stencil", i, tr),
            _ => self.run_adaptive(i, tr),
        }
    }

    fn adapt_gain(&self) -> f64 {
        self.static_ref.vt / self.adaptive_ref.vt
    }

    fn setup_parts(&self) -> (f64, f64) {
        (self.parse_ms, self.lower_ms)
    }

    fn layers(&mut self, tr: &Tracer, ops: &[Op], m: &mut BTreeMap<&'static str, f64>) {
        let med_ms = |name| {
            median(
                &tr.durations(name)
                    .iter()
                    .map(|d| util::ms(*d))
                    .collect::<Vec<_>>(),
            )
        };
        m.insert("apps.sort_ms", med_ms("apps.sort"));
        m.insert("apps.matvec_ms", med_ms("apps.matvec"));
        m.insert("apps.stencil_ms", med_ms("apps.stencil"));
        m.insert("hbsplib.adaptive_ms", med_ms("hbsplib.adaptive"));
        wall_columns(&self.flight.snapshot(), m);
        words_per_s(ops, m);

        let last = self
            .last_adaptive
            .take()
            .expect("an adaptive run was traced");
        m.insert("hbsplib.replans", last.replans as f64);
        let retune_us = tr.span("collectives.retune", 0, || {
            median_us(50, || {
                std::hint::black_box(
                    retune(&last.belief, BCAST_N, &self.incumbent).expect("retune succeeds"),
                );
            })
        });
        m.insert("collectives.retune_us", retune_us);

        // Calibration over one segment's steps, as the controller makes
        // it: one window of rounds under the fault plan, recorded. On
        // this workload the fit is under-determined (identical-h steps)
        // and returns an error, after which the controller falls back to
        // per-processor estimates; the attempt is what is timed.
        let seg = Arc::new(FlightRecorder::new());
        let planned = self
            .job
            .lower(&self.tree, CFG.window)
            .expect("broadcast lowers");
        Executor::threads(self.tree.clone())
            .faults(self.faults.clone())
            .probe(seg.clone())
            .run(&planned.prog)
            .expect("one window runs");
        let window = seg.snapshot();
        let calibrate_us = tr.span("obs.calibrate", 0, || {
            median_us(200, || {
                let _ = std::hint::black_box(calibrate_robust(&window, &[], CFG.calibration_trim));
            })
        });
        m.insert("obs.calibrate_us", calibrate_us);

        runtime_micro(tr, &self.tree, m);
        codec_rates(tr, &Rng(1).words(SORT_ITEMS / self.tree.num_procs()), m);

        engine_ratios(
            tr,
            &self.tree,
            8,
            |rt| {
                rt.run(&self.sort.prog).expect("sort runs");
                rt.run(&self.matvec.prog).expect("matvec runs");
                rt.run(&self.stencil.prog).expect("stencil runs");
            },
            |sim| {
                sim.run(&self.sort.prog).expect("sort runs");
                sim.run(&self.matvec.prog).expect("matvec runs");
                sim.run(&self.stencil.prog).expect("stencil runs");
            },
            m,
        );
    }
}
