//! The simulation engine: executes an [`SpmdProgram`] superstep by
//! superstep, running each processor's body in pid order and closing
//! every step with the shared [`StepKernel`] pipeline.

use crate::config::NetConfig;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::kernel::{proc_envs, run_bodies, StepKernel};
use crate::stats::StepStats;
use crate::trace::ProcTimeline;
use hbsp_core::{MachineTree, SpmdProgram};
use hbsp_obs::Probe;
use std::sync::Arc;

/// Result of a simulated program run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Model time at which the last processor finished (the paper's
    /// execution time `T`).
    pub total_time: f64,
    /// Per-processor finish times.
    pub proc_finish: Vec<f64>,
    /// Per-superstep statistics.
    pub steps: Vec<StepStats>,
    /// Total messages delivered across the run.
    pub messages_delivered: u64,
    /// Per-processor activity timelines, when tracing was enabled.
    pub timelines: Option<Vec<ProcTimeline>>,
}

impl SimOutcome {
    /// Number of supersteps executed.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total words that crossed links at `level` over the whole run.
    pub fn words_at_level(&self, level: hbsp_core::Level) -> u64 {
        self.steps.iter().map(|s| s.words_at(level)).sum()
    }
}

/// Deterministic discrete-event simulator for one machine.
///
/// ```
/// use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope, TreeBuilder};
/// use hbsp_sim::Simulator;
/// use std::sync::Arc;
///
/// /// Rank 1 pings rank 0 once.
/// struct Ping;
/// impl SpmdProgram for Ping {
///     type State = usize;
///     fn init(&self, _e: &ProcEnv) -> usize { 0 }
///     fn step(&self, step: usize, env: &ProcEnv, got: &mut usize,
///             ctx: &mut dyn SpmdContext) -> StepOutcome {
///         if step == 0 {
///             if env.pid == ProcId(1) { ctx.send(ProcId(0), 0, &[1, 2, 3, 4]); }
///             StepOutcome::Continue(SyncScope::global(&env.tree))
///         } else {
///             *got = ctx.messages().len();
///             StepOutcome::Done
///         }
///     }
/// }
///
/// let tree = Arc::new(TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5)]).unwrap());
/// let (outcome, states) = Simulator::new(tree).run_with_states(&Ping).unwrap();
/// assert_eq!(states, vec![1, 0]);
/// assert!(outcome.total_time > 0.0);
/// ```
pub struct Simulator {
    tree: Arc<MachineTree>,
    cfg: NetConfig,
    step_limit: usize,
    trace: bool,
    check: bool,
    faults: FaultPlan,
    step_deadline: Option<f64>,
    probe: Arc<dyn Probe>,
}

impl Simulator {
    /// Simulator with the PVM-like default microcosts.
    pub fn new(tree: Arc<MachineTree>) -> Self {
        Simulator::with_config(tree, NetConfig::pvm_like())
    }

    /// Simulator with explicit microcosts.
    pub fn with_config(tree: Arc<MachineTree>, cfg: NetConfig) -> Self {
        Simulator {
            tree,
            cfg,
            step_limit: 100_000,
            trace: false,
            check: cfg!(debug_assertions),
            faults: FaultPlan::new(),
            step_deadline: None,
            probe: hbsp_obs::noop(),
        }
    }

    /// Override the runaway-program guard (default 100 000 supersteps).
    pub fn step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Record per-processor activity timelines (see [`crate::trace`]).
    pub fn trace(mut self, enable: bool) -> Self {
        self.trace = enable;
        self
    }

    /// Toggle the static pre-flight check (`SpmdProgram::preflight`)
    /// run before the first superstep. On by default in debug builds:
    /// a malformed program fails at submit time with
    /// [`SimError::Preflight`] instead of panicking or hanging a
    /// barrier mid-run.
    pub fn check(mut self, enable: bool) -> Self {
        self.check = enable;
        self
    }

    /// Inject a scripted [`FaultPlan`]. Both engines honor the same
    /// plan at the same protocol points, in the same order (stall →
    /// crash → bodies → message corruption → straggle timing), so
    /// fault runs stay reproducible across engines.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Attach a telemetry [`Probe`] (default: the no-op probe). When
    /// the probe reports itself enabled the simulator emits one
    /// [`StepRecord`] per superstep in **virtual time** (the same
    /// schema the threaded runtime fills with wall-clock marks added)
    /// plus [`ObsEvent`]s for watchdog aborts; when disabled nothing
    /// is assembled.
    ///
    /// [`StepRecord`]: hbsp_obs::StepRecord
    /// [`ObsEvent`]: hbsp_obs::ObsEvent
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Virtual-time guard on superstep duration (default: unlimited):
    /// a superstep whose slowest processor finishes more than
    /// `deadline` model-time units after the step's earliest release
    /// aborts with [`SimError::BarrierTimeout`] naming the laggards.
    /// Mirrors the threaded runtime's wall-clock
    /// `ThreadedRuntime::step_deadline`.
    pub fn step_deadline(mut self, deadline: f64) -> Self {
        self.step_deadline = Some(deadline);
        self
    }

    /// The machine being simulated.
    pub fn tree(&self) -> &Arc<MachineTree> {
        &self.tree
    }

    /// The network configuration in effect.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Execute `prog` to completion and also return each processor's
    /// final state (for result extraction).
    pub fn run_with_states<P: SpmdProgram>(
        &self,
        prog: &P,
    ) -> Result<(SimOutcome, Vec<P::State>), SimError> {
        let mut kernel = StepKernel::new(
            Arc::clone(&self.tree),
            self.cfg.clone(),
            self.faults.clone(),
            Arc::clone(&self.probe),
            self.trace,
            self.step_deadline,
        )?;
        if self.check {
            prog.preflight(&self.tree)
                .map_err(|e| SimError::Preflight {
                    message: e.to_string(),
                })?;
        }
        let envs = proc_envs(&self.tree);
        let mut states: Vec<P::State> = envs.iter().map(|e| prog.init(e)).collect();
        for step in 0..self.step_limit {
            // Bodies run in pid order, reading the batches the kernel
            // delivered last step; a body panic propagates to the caller.
            let done = kernel.step(step, None, |c, inboxes| {
                run_bodies(prog, step, &envs, &mut states, inboxes, c);
                None
            })?;
            if done {
                return Ok((kernel.into_outcome(), states));
            }
        }
        Err(SimError::StepLimit {
            limit: self.step_limit,
        })
    }

    /// Execute `prog` to completion, discarding final states.
    pub fn run<P: SpmdProgram>(&self, prog: &P) -> Result<SimOutcome, SimError> {
        self.run_with_states(prog).map(|(o, _)| o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{ProcEnv, ProcId, SpmdContext, StepOutcome, SyncScope, TreeBuilder};

    /// Every processor sends its pid to the next rank for `rounds`
    /// supersteps, then checks what it received.
    struct RingShift {
        rounds: usize,
    }

    impl SpmdProgram for RingShift {
        type State = Vec<u32>;
        fn init(&self, _env: &ProcEnv) -> Vec<u32> {
            Vec::new()
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            state: &mut Vec<u32>,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            for m in ctx.messages() {
                state.push(m.src.0);
            }
            if step == self.rounds {
                return StepOutcome::Done;
            }
            let next = ProcId(((env.pid.0 as usize + 1) % env.nprocs) as u32);
            ctx.send(next, 0, &[1, 2, 3, 4]);
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    fn flat4() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::flat(1.0, 10.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.5), (3.0, 0.3)])
                .unwrap(),
        )
    }

    #[test]
    fn delivery_guarantee_messages_arrive_next_step() {
        let sim = Simulator::new(flat4());
        let (out, states) = sim.run_with_states(&RingShift { rounds: 3 }).unwrap();
        assert_eq!(out.num_steps(), 4, "3 sending steps + 1 final drain step");
        for (i, st) in states.iter().enumerate() {
            let prev = ((i + 4 - 1) % 4) as u32;
            assert_eq!(
                st,
                &vec![prev; 3],
                "proc {i} got 3 messages from its left neighbour"
            );
        }
        assert_eq!(out.messages_delivered, 12);
    }

    #[test]
    fn simulation_is_deterministic() {
        let sim = Simulator::new(flat4());
        let a = sim.run(&RingShift { rounds: 5 }).unwrap();
        let b = sim.run(&RingShift { rounds: 5 }).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.proc_finish, b.proc_finish);
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.hrelation, y.hrelation);
            assert_eq!(x.release_max, y.release_max);
        }
    }

    #[test]
    fn time_advances_with_rounds() {
        let sim = Simulator::new(flat4());
        let t1 = sim.run(&RingShift { rounds: 1 }).unwrap().total_time;
        let t5 = sim.run(&RingShift { rounds: 5 }).unwrap().total_time;
        assert!(
            t5 > t1 * 3.0,
            "5 rounds should cost ~5x one round: {t1} vs {t5}"
        );
    }

    /// Deliberately divergent program: proc 0 finishes early.
    struct Divergent;
    impl SpmdProgram for Divergent {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            _step: usize,
            env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if env.pid.0 == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
    }

    #[test]
    fn termination_mismatch_detected() {
        let sim = Simulator::new(flat4());
        assert_eq!(
            sim.run(&Divergent).unwrap_err(),
            SimError::TerminationMismatch { step: 0 }
        );
    }

    /// Program whose processors disagree on sync scope.
    struct ScopeFight;
    impl SpmdProgram for ScopeFight {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 1 {
                return StepOutcome::Done;
            }
            StepOutcome::Continue(SyncScope::Level(if env.pid.0 == 0 { 1 } else { 0 }))
        }
    }

    #[test]
    fn scope_mismatch_detected() {
        let sim = Simulator::new(flat4());
        assert!(matches!(
            sim.run(&ScopeFight),
            Err(SimError::ScopeMismatch { step: 0, .. })
        ));
    }

    /// Cross-cluster message under a cluster-local barrier.
    struct BadCrossSend;
    impl SpmdProgram for BadCrossSend {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            _state: &mut (),
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            if step == 1 {
                return StepOutcome::Done;
            }
            if env.pid.0 == 0 {
                // P0 is in cluster 0; the last proc is in cluster 1.
                ctx.send(ProcId(env.nprocs as u32 - 1), 0, &[0; 4]);
            }
            StepOutcome::Continue(SyncScope::Level(1))
        }
    }

    #[test]
    fn cross_cluster_send_under_local_sync_rejected() {
        let tree = Arc::new(
            TreeBuilder::two_level(
                1.0,
                50.0,
                &[(5.0, vec![(1.0, 1.0), (2.0, 0.5)]), (5.0, vec![(2.0, 0.5)])],
            )
            .unwrap(),
        );
        let sim = Simulator::new(tree);
        assert!(matches!(
            sim.run(&BadCrossSend),
            Err(SimError::CrossClusterSend { step: 0, .. })
        ));
    }

    /// Never-terminating program hits the step limit.
    struct Forever;
    impl SpmdProgram for Forever {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            _step: usize,
            env: &ProcEnv,
            _state: &mut (),
            _ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    #[test]
    fn step_limit_guards_runaway_programs() {
        let sim = Simulator::new(flat4()).step_limit(10);
        assert_eq!(
            sim.run(&Forever).unwrap_err(),
            SimError::StepLimit { limit: 10 }
        );
    }

    #[test]
    fn stats_capture_traffic_by_level() {
        let sim = Simulator::new(flat4());
        let out = sim.run(&RingShift { rounds: 1 }).unwrap();
        // One round: 4 messages of 1 word each, all at level 1.
        assert_eq!(out.steps[0].words_at(1), 4);
        assert_eq!(out.steps[0].traffic[1].messages, 4);
        assert!(out.steps[0].hrelation > 0.0);
    }

    #[test]
    fn tracing_records_consistent_timelines() {
        let sim = Simulator::new(flat4()).trace(true);
        let out = sim.run(&RingShift { rounds: 3 }).unwrap();
        let tls = out.timelines.as_ref().expect("tracing enabled");
        assert_eq!(tls.len(), 4);
        for tl in tls {
            // Spans are time-ordered, non-overlapping, and end by the
            // run's total time.
            for w in tl.spans.windows(2) {
                assert!(w[0].end <= w[1].start + 1e-9, "{:?}", tl);
            }
            let last = tl.spans.last().unwrap();
            assert!(last.end <= out.total_time + 1e-9);
            // Everyone spends some time waiting at barriers except
            // possibly the straggler.
            assert!(
                tl.time_in(crate::trace::SpanKind::Send) > 0.0,
                "everyone sends"
            );
        }
        // Untraced runs carry no timelines.
        let plain = Simulator::new(flat4())
            .run(&RingShift { rounds: 3 })
            .unwrap();
        assert!(plain.timelines.is_none());
        // The Gantt chart renders one row per processor.
        let chart = crate::trace::ascii_gantt(tls, 40);
        assert_eq!(chart.lines().count(), 5);
    }

    #[test]
    fn scripted_crash_and_stall_yield_typed_errors() {
        use crate::faults::FaultPlan;
        let sim = Simulator::new(flat4()).faults(FaultPlan::new().crash(ProcId(2), 1));
        assert_eq!(
            sim.run(&RingShift { rounds: 3 }).unwrap_err(),
            SimError::ProcCrashed {
                pids: vec![ProcId(2)],
                step: 1
            }
        );
        let sim = Simulator::new(flat4()).faults(FaultPlan::new().stall(ProcId(1), 2));
        assert_eq!(
            sim.run(&RingShift { rounds: 3 }).unwrap_err(),
            SimError::BarrierTimeout {
                missing: vec![ProcId(1)],
                step: 2
            }
        );
        // A stall scripted alongside a crash at the same step wins: the
        // watchdog fires before the crash can be diagnosed (the same
        // order the threaded runtime observes).
        let sim = Simulator::new(flat4())
            .faults(FaultPlan::new().crash(ProcId(0), 1).stall(ProcId(3), 1));
        assert!(matches!(
            sim.run(&RingShift { rounds: 3 }).unwrap_err(),
            SimError::BarrierTimeout { step: 1, .. }
        ));
    }

    #[test]
    fn straggler_inflates_time_without_changing_results() {
        use crate::faults::FaultPlan;
        let clean = Simulator::new(flat4())
            .run(&RingShift { rounds: 3 })
            .unwrap();
        let slow = Simulator::new(flat4())
            .faults(FaultPlan::new().straggle(ProcId(0), 1, 50.0))
            .run_with_states(&RingShift { rounds: 3 })
            .unwrap();
        assert!(
            slow.0.total_time > clean.total_time,
            "{} vs {}",
            slow.0.total_time,
            clean.total_time
        );
        assert_eq!(slow.0.messages_delivered, 12, "delivery unaffected");
        for (i, st) in slow.1.iter().enumerate() {
            assert_eq!(st.len(), 3, "proc {i} still got every message");
        }
    }

    #[test]
    fn dropped_and_truncated_messages_are_scripted_losses() {
        use crate::faults::FaultPlan;
        let sim = Simulator::new(flat4()).faults(FaultPlan::new().drop_msgs(ProcId(0), 1));
        let (out, states) = sim.run_with_states(&RingShift { rounds: 3 }).unwrap();
        assert_eq!(out.messages_delivered, 11, "one message lost");
        assert_eq!(states[1].len(), 2, "P1 misses P0's step-1 send");
        assert_eq!(states[0].len(), 3, "everyone else unaffected");

        let sim = Simulator::new(flat4()).faults(FaultPlan::new().truncate(ProcId(2), 0, 0));
        let (out, _) = sim.run_with_states(&RingShift { rounds: 1 }).unwrap();
        assert_eq!(out.messages_delivered, 4, "truncated but delivered");
        assert_eq!(out.steps[0].words_at(1), 3, "P2's word is gone");
    }

    #[test]
    fn virtual_step_deadline_names_laggards() {
        let sim = Simulator::new(flat4()).step_deadline(1e9);
        assert!(sim.run(&RingShift { rounds: 3 }).is_ok(), "generous budget");
        let sim = Simulator::new(flat4()).step_deadline(0.5);
        let err = sim.run(&RingShift { rounds: 3 }).unwrap_err();
        match err {
            SimError::BarrierTimeout { missing, step } => {
                assert_eq!(step, 0);
                assert!(!missing.is_empty());
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
    }

    #[test]
    fn fault_runs_are_seed_reproducible() {
        use crate::faults::FaultPlan;
        let tree = flat4();
        let plan = FaultPlan::random(7, &tree);
        let run = || {
            Simulator::new(Arc::clone(&tree))
                .faults(plan.clone())
                .run(&RingShift { rounds: 3 })
        };
        let (a, b) = (run(), run());
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.total_time, y.total_time);
                assert_eq!(x.proc_finish, y.proc_finish);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("runs diverged: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn bad_destination_rejected() {
        struct BadDst;
        impl SpmdProgram for BadDst {
            type State = ();
            fn init(&self, _env: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                ctx: &mut dyn SpmdContext,
            ) -> StepOutcome {
                ctx.send(ProcId(99), 0, &[]);
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let sim = Simulator::new(flat4());
        assert_eq!(
            sim.run(&BadDst).unwrap_err(),
            SimError::NoSuchProc {
                step: 0,
                dst: ProcId(99)
            }
        );
    }
}
