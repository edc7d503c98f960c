//! The superstep kernel: the one HBSP^k superstep pipeline every engine
//! runs.
//!
//! The simulator and the threaded runtime differ only in how a
//! superstep's bodies run — sequentially in pid order, or one OS thread
//! per processor meeting at a barrier. Everything after that is the
//! [`StepKernel`]: given the step's gathered contributions it runs, in
//! this fixed order,
//!
//! 1. the fault gate: a scripted stall trips the watchdog before a
//!    crash can be diagnosed, and a crash is seen before any body runs;
//! 2. the gather, then a contained body panic (lowest rank wins);
//! 3. network faults on the posted messages ([`FaultPlan::corrupt_batch`]);
//! 4. SPMD discipline and message validation ([`resolve_outcomes`],
//!    [`analyze_into`]);
//! 5. the timing algebra with any scripted stragglers, then the
//!    virtual step deadline;
//! 6. barrier release, timelines, the probe's [`StepRecord`] and the
//!    step's [`StepStats`];
//! 7. delivery into per-destination batches in (arrival, posting
//!    index) order.
//!
//! Both engines therefore produce the same virtual-time outcome, the
//! same typed error and the same telemetry by construction, not by
//! keeping two copies in step. The kernel reads no clock: the runtime
//! hands it the body wall marks and a clock for the leader's
//! completion mark.

use crate::config::NetConfig;
use crate::engine::SimOutcome;
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::stats::StepStats;
use crate::step::{analyze_into, delivery_order_into, resolve_outcomes, StepAnalysis};
use crate::timing::{barrier_release, superstep_timing_faulted_into, StepTiming, TimingScratch};
use crate::trace::{step_spans, ProcTimeline};
use hbsp_core::{
    MachineTree, MsgBatch, ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope,
};
use hbsp_obs::{ObsEvent, Probe, StepRecord, StepWall};
use std::sync::Arc;

/// One superstep's contributions, gathered in pid order: charged work,
/// outcomes, the posted messages in posting order, and (on the
/// threaded runtime) each body's wall-clock start and end.
#[derive(Default)]
pub struct Contributions {
    pub(crate) work: Vec<f64>,
    pub(crate) outcomes: Vec<StepOutcome>,
    pub(crate) sends: MsgBatch,
    body_start_ns: Vec<u64>,
    body_end_ns: Vec<u64>,
}

impl Contributions {
    pub(crate) fn clear(&mut self) {
        self.work.clear();
        self.outcomes.clear();
        self.sends.clear();
        self.body_start_ns.clear();
        self.body_end_ns.clear();
    }

    /// Append the next processor's contribution: its charged work, its
    /// outcome, its posted messages (bulk-moved out of `sends`, which
    /// is left empty), and its body's wall-clock `(start, end)` in ns
    /// since the run began (read only when the step is closed with a
    /// clock).
    pub fn push(
        &mut self,
        work: f64,
        outcome: StepOutcome,
        sends: &mut MsgBatch,
        body_ns: (u64, u64),
    ) {
        self.work.push(work);
        self.outcomes.push(outcome);
        self.sends.append(sends);
        self.body_start_ns.push(body_ns.0);
        self.body_end_ns.push(body_ns.1);
    }
}

/// The per-processor superstep context every engine hands a body: a
/// read-only view of the processor's delivered batch plus write access
/// to an outbox batch — no per-message allocation on either side.
pub struct BodyCtx<'a> {
    env: &'a ProcEnv,
    inbox: &'a MsgBatch,
    outbox: &'a mut MsgBatch,
    work: f64,
}

impl<'a> BodyCtx<'a> {
    /// Context for `env`'s body reading `inbox` and posting into
    /// `outbox`.
    pub fn new(env: &'a ProcEnv, inbox: &'a MsgBatch, outbox: &'a mut MsgBatch) -> Self {
        BodyCtx {
            env,
            inbox,
            outbox,
            work: 0.0,
        }
    }

    /// Work units the body charged so far.
    pub fn work(&self) -> f64 {
        self.work
    }
}

impl SpmdContext for BodyCtx<'_> {
    fn pid(&self) -> ProcId {
        self.env.pid
    }
    fn nprocs(&self) -> usize {
        self.env.nprocs
    }
    fn tree(&self) -> &MachineTree {
        &self.env.tree
    }
    fn messages(&self) -> &MsgBatch {
        self.inbox
    }
    fn send_with(&mut self, dst: ProcId, tag: u32, len: usize, fill: &mut dyn FnMut(&mut [u8])) {
        self.outbox.push_with(self.env.pid, dst, tag, len, fill);
    }
    fn charge(&mut self, units: f64) {
        assert!(
            units >= 0.0 && units.is_finite(),
            "charged work must be finite and non-negative"
        );
        self.work += units;
    }
}

/// Every processor's environment on `tree`, in rank order.
pub(crate) fn proc_envs(tree: &Arc<MachineTree>) -> Vec<ProcEnv> {
    let p = tree.num_procs();
    (0..p)
        .map(|i| ProcEnv {
            pid: ProcId(i as u32),
            nprocs: p,
            tree: Arc::clone(tree),
        })
        .collect()
}

/// The sequential body loop: run every processor's `step` body in pid
/// order, each reading `inboxes[rank]`, all posting into the one shared
/// outbox of `c` — so posting order is pid order, exactly the threaded
/// runtime's pid-ordered gather.
pub(crate) fn run_bodies<P: SpmdProgram>(
    prog: &P,
    step: usize,
    envs: &[ProcEnv],
    states: &mut [P::State],
    inboxes: &[MsgBatch],
    c: &mut Contributions,
) {
    for ((env, state), inbox) in envs.iter().zip(states).zip(inboxes) {
        let mut ctx = BodyCtx::new(env, inbox, &mut c.sends);
        let outcome = prog.step(step, env, state, &mut ctx);
        c.work.push(ctx.work());
        c.outcomes.push(outcome);
    }
}

/// Reusable probe-record assembly buffers: an enabled probe costs no
/// per-superstep allocation either.
#[derive(Default)]
struct EmitScratch {
    words: Vec<u64>,
    messages: Vec<u64>,
    sent: Vec<u64>,
}

/// The superstep pipeline and everything it accumulates over a run
/// (see the module docs for the order it runs in).
///
/// Every per-step buffer is reused, so once warmed to a program's
/// steady-state message volume a superstep performs no per-message
/// heap allocation.
pub struct StepKernel {
    tree: Arc<MachineTree>,
    cfg: NetConfig,
    faults: FaultPlan,
    probe: Arc<dyn Probe>,
    deadline: Option<f64>,
    inputs: Contributions,
    starts: Vec<f64>,
    analysis: StepAnalysis,
    timing: StepTiming,
    timing_scratch: TimingScratch,
    order: Vec<usize>,
    emit: EmitScratch,
    dests: Vec<MsgBatch>,
    steps: Vec<StepStats>,
    timelines: Option<Vec<ProcTimeline>>,
    delivered: u64,
}

impl StepKernel {
    /// A kernel for one run on `tree`. `trace` records per-processor
    /// timelines; `deadline` is the virtual-time step budget (see
    /// `Simulator::step_deadline`). Fails before any body runs when
    /// `cfg` is invalid or `faults` targets a processor the machine
    /// does not have.
    pub fn new(
        tree: Arc<MachineTree>,
        cfg: NetConfig,
        faults: FaultPlan,
        probe: Arc<dyn Probe>,
        trace: bool,
        deadline: Option<f64>,
    ) -> Result<StepKernel, SimError> {
        cfg.validate()?;
        let p = tree.num_procs();
        if let Some(f) = faults.faults().iter().find(|f| f.pid().rank() >= p) {
            return Err(SimError::NoSuchFaultTarget {
                pid: f.pid(),
                step: f.step(),
            });
        }
        Ok(StepKernel {
            tree,
            cfg,
            faults,
            probe,
            deadline,
            inputs: Contributions::default(),
            starts: vec![0.0; p],
            analysis: StepAnalysis::default(),
            timing: StepTiming::default(),
            timing_scratch: TimingScratch::default(),
            order: Vec::new(),
            emit: EmitScratch::default(),
            dests: (0..p).map(|_| MsgBatch::new()).collect(),
            steps: Vec::new(),
            timelines: trace.then(|| {
                (0..p)
                    .map(|i| ProcTimeline {
                        pid: ProcId(i as u32),
                        spans: Vec::new(),
                    })
                    .collect()
            }),
            delivered: 0,
        })
    }

    /// The watchdog verdict for `step`: report `missing` to the probe
    /// and return the typed timeout.
    pub fn timeout(&self, missing: Vec<ProcId>, step: usize) -> SimError {
        if self.probe.enabled() {
            self.probe.on_event(&ObsEvent::WatchdogFired {
                step,
                missing: &missing,
            });
        }
        SimError::BarrierTimeout { missing, step }
    }

    /// Close superstep `step`.
    ///
    /// After the fault gate, `gather` fills the (cleared) contributions
    /// in pid order and returns the lowest rank whose body panicked, if
    /// any. It also receives every processor's batch delivered by the
    /// previous step, which the simulator's sequential bodies read. Then
    /// the rest of the pipeline runs. `clock`, when given, stamps the
    /// probe record's wall-clock marks with the leader's completion
    /// time (ns since the run began).
    ///
    /// Returns `Ok(true)` when every processor finished, `Ok(false)`
    /// when the step's messages wait in [`StepKernel::dests_mut`] for
    /// the next superstep.
    pub fn step(
        &mut self,
        step: usize,
        clock: Option<&dyn Fn() -> u64>,
        gather: impl FnOnce(&mut Contributions, &[MsgBatch]) -> Option<ProcId>,
    ) -> Result<bool, SimError> {
        let stalled = self.faults.stalled_at(step);
        if !stalled.is_empty() {
            return Err(self.timeout(stalled, step));
        }
        let crashed = self.faults.crashed_at(step);
        if !crashed.is_empty() {
            return Err(SimError::ProcCrashed {
                pids: crashed,
                step,
            });
        }
        self.inputs.clear();
        if let Some(pid) = gather(&mut self.inputs, &self.dests) {
            return Err(SimError::ProgramPanicked { pid, step });
        }
        for dest in &mut self.dests {
            dest.clear();
        }

        let p = self.tree.num_procs();
        self.faults.corrupt_batch(step, &mut self.inputs.sends);
        let inputs = &self.inputs;
        let scope = resolve_outcomes(step, &inputs.outcomes)?;
        analyze_into(&self.tree, step, scope, &inputs.sends, &mut self.analysis)?;
        let r_scale = self
            .faults
            .straggles_at(step)
            .then(|| self.faults.r_multipliers(step, p));
        superstep_timing_faulted_into(
            &self.tree,
            &self.cfg,
            &self.starts,
            &inputs.work,
            &self.analysis.intents,
            r_scale.as_deref(),
            &mut self.timing_scratch,
            &mut self.timing,
        );
        let finish = &self.timing.finish;
        let finish_max = finish.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let start_min = self.starts.iter().cloned().fold(f64::INFINITY, f64::min);

        // Virtual-time mirror of the runtime's wall-clock step
        // deadline: laggards past the budget are "missing".
        if let Some(d) = self.deadline {
            let missing: Vec<ProcId> = (0..p)
                .filter(|&i| finish[i] > start_min + d)
                .map(|i| ProcId(i as u32))
                .collect();
            if !missing.is_empty() {
                return Err(self.timeout(missing, step));
            }
        }

        // The final step has no barrier: everyone is released at its
        // own finish.
        let released = scope.map(|s| barrier_release(&self.tree, s, finish));
        let releases = released.as_deref().unwrap_or(finish);
        if let Some(tls) = &mut self.timelines {
            step_spans(tls, &self.starts, &self.timing, releases);
        }
        if self.probe.enabled() {
            let e = &mut self.emit;
            e.words.clear();
            e.words
                .extend(self.analysis.traffic.iter().map(|t| t.words));
            e.messages.clear();
            e.messages
                .extend(self.analysis.traffic.iter().map(|t| t.messages));
            e.sent.clear();
            e.sent.resize(p, 0);
            for intent in &self.analysis.intents {
                e.sent[intent.src.rank()] += intent.words;
            }
            self.probe.on_step(&StepRecord {
                step,
                barrier: scope.map(|s| s.level()),
                starts: &self.starts,
                compute_done: &self.timing.compute_done,
                send_done: &self.timing.send_done,
                finish,
                releases,
                words_by_level: &e.words,
                messages_by_level: &e.messages,
                hrelation: self.analysis.hrelation,
                work: &inputs.work,
                sent_words: &e.sent,
                wall: clock.map(|now| StepWall {
                    body_start_ns: &inputs.body_start_ns,
                    body_end_ns: &inputs.body_end_ns,
                    leader_done_ns: now(),
                }),
            });
        }
        self.steps.push(StepStats {
            step,
            scope: scope.unwrap_or_else(|| SyncScope::global(&self.tree)),
            start_min,
            finish_max,
            release_max: releases.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            traffic: self.analysis.traffic.clone(),
            hrelation: self.analysis.hrelation,
            work_units: inputs.work.iter().sum(),
        });

        let Some(releases) = released else {
            // Program over. Messages posted in the final step have no
            // next superstep to land in; they count as traffic but are
            // never readable.
            return Ok(true);
        };
        // Deliver for the next superstep, ordered by (arrival, posting
        // index) per receiver: one offset-table-guided bulk copy per
        // message into the receiver's persistent batch.
        delivery_order_into(&self.timing.messages, &mut self.order);
        for &mi in &self.order {
            let dst = inputs.sends.get(mi).dst;
            self.dests[dst.rank()].push_from(&inputs.sends, mi);
        }
        self.delivered += self.order.len() as u64;
        self.starts = releases;
        Ok(false)
    }

    /// Per-destination batches the last step delivered into; an engine
    /// that keeps its own mailboxes moves them out from here.
    pub fn dests_mut(&mut self) -> &mut [MsgBatch] {
        &mut self.dests
    }

    /// The run's outcome once the final step closed.
    pub fn into_outcome(self) -> SimOutcome {
        SimOutcome {
            total_time: self
                .timing
                .finish
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
            proc_finish: self.timing.finish,
            steps: self.steps,
            messages_delivered: self.delivered,
            timelines: self.timelines,
        }
    }
}
