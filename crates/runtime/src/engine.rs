//! The threaded execution engine.
//!
//! One OS thread per leaf processor, synchronized per superstep by a
//! hierarchical combining-tree barrier (see [`crate::barrier`]). The
//! per-step hot path is lock-free for the processor threads:
//!
//! * each thread writes its superstep contribution (charged work,
//!   posted messages, outcome) into its own cache-line-padded
//!   `ProcSlot` — no shared lock is taken between barriers;
//! * the barrier's leader section moves every slot's contribution, in
//!   pid order, into the [`hbsp_sim::StepKernel`] — the same superstep
//!   pipeline the simulator runs (fault gate, validation, timing,
//!   telemetry, delivery order) — and deposits the kernel's
//!   per-destination batches into the mailboxes, each locked exactly
//!   once per superstep;
//! * run-level coordination state (the kernel and the abort verdict)
//!   lives in a `LeaderState` mutex that only the leader section and
//!   the watchdog lock (uncontended by construction), with two atomics
//!   (`finished`, `failed`) publishing the step's verdict to the
//!   released threads.

use crate::barrier::{lock_anyway, BarrierKind, StepBarrier};
use crate::mailbox::Mailbox;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::{hb_assert, site_ord, Instant, Mutex, UnsafeCell};
use hbsp_core::{MachineTree, MsgBatch, ProcEnv, ProcId, SpmdProgram, StepOutcome};
use hbsp_obs::Probe;
use hbsp_sim::{BodyCtx, FaultPlan, NetConfig, SimError, SimOutcome, StepKernel};
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Watchdog armed at any step with a *scripted* barrier stall: peers
/// need not wait for a user deadline (possibly unlimited) to diagnose
/// a stall the fault plan guarantees will happen. Long enough that a
/// loaded CI machine still gets every healthy thread to the barrier
/// first; short enough that chaos runs stay fast.
const STALL_WATCHDOG: Duration = Duration::from_millis(100);

/// How long a scripted-stalled thread waits for its peers' watchdog
/// verdict before recording the (identical) timeout itself — the
/// fallback that keeps a stall of *every* processor from hanging.
const STALL_SELF_REPORT: Duration = Duration::from_millis(400);

/// Result of a threaded run: the same virtual-time outcome the
/// simulator would produce, plus real wall-clock duration.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Virtual-time outcome (identical to `Simulator::run` for the same
    /// program, machine, and config).
    pub virtual_outcome: SimOutcome,
    /// Real elapsed time of the threaded execution.
    pub wall: Duration,
}

/// One OS thread per leaf processor, superstep-synchronized.
pub struct ThreadedRuntime {
    tree: Arc<MachineTree>,
    cfg: NetConfig,
    step_limit: usize,
    barrier_kind: BarrierKind,
    trace: bool,
    check: bool,
    faults: FaultPlan,
    step_deadline: Option<Duration>,
    probe: Arc<dyn Probe>,
}

/// One processor's per-superstep contribution, padded to its own cache
/// lines so neighbouring writers never false-share.
///
/// Access protocol (this is what makes the `UnsafeCell` sound):
///
/// * between a barrier release and its next barrier arrival, slot `i`
///   is touched only by processor thread `i` (via [`ProcSlot::slot`]);
/// * inside the barrier's leader section — when every thread of the
///   generation has arrived and none has been released — all slots are
///   touched only by the leader.
///
/// The barrier's acquire/release edges order the two phases: every
/// owner write happens-before the leader's reads (the arrival chain),
/// and every leader write happens-before the owners' next writes (the
/// release flip).
#[repr(align(128))]
struct ProcSlot {
    data: UnsafeCell<SlotData>,
}

// SAFETY: shared access is mediated by the superstep barrier per the
// protocol documented on `ProcSlot` — at any instant at most one thread
// holds a reference into the cell.
unsafe impl Sync for ProcSlot {}

impl ProcSlot {
    fn new() -> Self {
        ProcSlot {
            data: UnsafeCell::new(SlotData::default()),
        }
    }

    /// Access the slot's contents.
    ///
    /// # Safety
    /// The caller must hold the slot per the [`ProcSlot`] protocol:
    /// either it is processor thread `i` outside the leader section, or
    /// it is the leader inside the leader section.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slot(&self) -> &mut SlotData {
        // The model-checkable form of this function's safety contract:
        // every prior access to the cell must happen-before this one.
        hb_assert!(
            self.data,
            "ProcSlot protocol: the caller is the slot's unique holder \
             for the current barrier phase"
        );
        // SAFETY: per this function's contract the caller is the slot's
        // unique holder for the current barrier phase, so no other
        // reference into the cell exists while this one lives.
        unsafe { &mut *self.data.get() }
    }
}

#[derive(Default)]
struct SlotData {
    /// Charged work units of the current step.
    work: f64,
    /// This step's drained inbox: swapped out of the mailbox at body
    /// start, swapped back (empty) as the next delivery buffer. Owned
    /// by the processor thread; the leader never reads it.
    inbox: MsgBatch,
    /// Messages posted in the current step, in posting order — a flat
    /// batch the body's `send` writes into directly and the leader
    /// bulk-moves out, so a steady-state step allocates nothing here.
    sends: MsgBatch,
    /// The step body's outcome; consumed by the leader.
    outcome: Option<StepOutcome>,
    /// The current step's body panicked (contained). Only the *leader*
    /// (inside the barrier, when every thread of the generation has
    /// arrived) translates this into the shared error — publishing the
    /// error directly from the panicking thread would let a racing peer
    /// observe it during the *previous* step's check and exit before
    /// reaching the next barrier, stranding everyone else there.
    panicked: bool,
    /// Wall-clock body start of the current step (ns since the run
    /// began). Written by the owner thread only when a probe is
    /// enabled; the leader hands it to the kernel's probe record.
    body_start_ns: u64,
    /// Wall-clock body end (barrier arrival) of the current step.
    body_end_ns: u64,
}

/// Run-level coordination state. Locked only inside the barrier's
/// leader section (and by the watchdog's abort path, and once after the
/// run), so the mutex is always uncontended — it exists to satisfy the
/// borrow checker, not to arbitrate threads.
struct LeaderState {
    /// The shared superstep pipeline and everything it accumulates.
    kernel: StepKernel,
    /// Set when the run aborts; threads bail out.
    error: Option<SimError>,
}

impl ThreadedRuntime {
    /// Runtime with PVM-like default microcosts.
    pub fn new(tree: Arc<MachineTree>) -> Self {
        ThreadedRuntime::with_config(tree, NetConfig::pvm_like())
    }

    /// Runtime with explicit microcosts.
    pub fn with_config(tree: Arc<MachineTree>, cfg: NetConfig) -> Self {
        ThreadedRuntime {
            tree,
            cfg,
            step_limit: 100_000,
            barrier_kind: BarrierKind::default(),
            trace: false,
            check: cfg!(debug_assertions),
            faults: FaultPlan::new(),
            step_deadline: None,
            probe: hbsp_obs::noop(),
        }
    }

    /// Attach a telemetry [`Probe`] (default: the no-op probe). When
    /// enabled, the leader section emits one [`StepRecord`] per
    /// superstep carrying the same virtual-time schema the simulator
    /// produces *plus* wall-clock marks ([`StepWall`]) measured with
    /// `Instant`; watchdog aborts surface as [`ObsEvent`]s. When
    /// disabled nothing is assembled and the hot path is untouched.
    ///
    /// [`StepRecord`]: hbsp_obs::StepRecord
    /// [`StepWall`]: hbsp_obs::StepWall
    /// [`ObsEvent`]: hbsp_obs::ObsEvent
    pub fn probe(mut self, probe: Arc<dyn Probe>) -> Self {
        self.probe = probe;
        self
    }

    /// Record per-processor activity timelines (see [`hbsp_sim::trace`]).
    /// The spans are built from the same timing algebra the simulator
    /// uses, so a traced threaded run and a traced simulation of the
    /// same program produce identical timelines.
    pub fn trace(mut self, enable: bool) -> Self {
        self.trace = enable;
        self
    }

    /// Override the runaway-program guard (default 100 000 supersteps).
    pub fn step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Toggle the static pre-flight check (`SpmdProgram::preflight`)
    /// run before any thread spawns. On by default in debug builds: a
    /// malformed program fails at submit time with
    /// [`SimError::Preflight`] instead of panicking a worker or
    /// hanging a barrier mid-run.
    pub fn check(mut self, enable: bool) -> Self {
        self.check = enable;
        self
    }

    /// Choose the superstep barrier implementation (default:
    /// [`BarrierKind::Hierarchical`]). The central barrier is kept as
    /// the baseline for the `engine_overhead` bench.
    pub fn barrier(mut self, kind: BarrierKind) -> Self {
        self.barrier_kind = kind;
        self
    }

    /// Inject a scripted [`FaultPlan`]. Both engines honor the same
    /// plan at the same protocol points, in the same order (stall →
    /// crash → bodies → message corruption → straggle timing), so a
    /// fault run here yields the same typed error or virtual-time
    /// outcome as `Simulator` under the same plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Wall-clock watchdog on barrier arrival (default: unlimited): if
    /// any peer is still missing `deadline` after a thread started
    /// waiting, the run aborts with [`SimError::BarrierTimeout`]
    /// naming the absent pids instead of hanging. The deadline should
    /// comfortably exceed a superstep's real compute time. Mirrored in
    /// virtual time by `Simulator::step_deadline`.
    pub fn step_deadline(mut self, deadline: Duration) -> Self {
        self.step_deadline = Some(deadline);
        self
    }

    /// The machine being executed.
    pub fn tree(&self) -> &Arc<MachineTree> {
        &self.tree
    }

    /// Run `prog` on real threads; returns the outcome and every
    /// processor's final state.
    pub fn run_with_states<P: SpmdProgram>(
        &self,
        prog: &P,
    ) -> Result<(RunOutcome, Vec<P::State>), SimError> {
        let kernel = StepKernel::new(
            Arc::clone(&self.tree),
            self.cfg.clone(),
            self.faults.clone(),
            Arc::clone(&self.probe),
            self.trace,
            None,
        )?;
        if self.check {
            prog.preflight(&self.tree)
                .map_err(|e| SimError::Preflight {
                    message: e.to_string(),
                })?;
        }
        let p = self.tree.num_procs();
        let barrier = StepBarrier::new(self.barrier_kind, &self.tree);
        let mailboxes: Vec<Mailbox> = (0..p).map(|_| Mailbox::new()).collect();
        let slots: Vec<ProcSlot> = (0..p).map(|_| ProcSlot::new()).collect();
        let leader_state = Mutex::new(LeaderState {
            kernel,
            error: None,
        });
        let finished = AtomicBool::new(false);
        let failed = AtomicBool::new(false);
        // Arrival board: rank `i` stores `step + 1` right before its
        // barrier arrival. A watchdog firing on an *unscripted* stall
        // (a hung body under `step_deadline`) derives the missing-pid
        // list from it; scripted stalls use the plan's own list so the
        // error value matches the simulator's bit for bit.
        let arrived: Vec<AtomicUsize> = (0..p).map(|_| AtomicUsize::new(0)).collect();

        let began = Instant::now();
        let tasks: Vec<_> = (0..p)
            .map(|i| {
                let env = ProcEnv {
                    pid: ProcId(i as u32),
                    nprocs: p,
                    tree: Arc::clone(&self.tree),
                };
                let barrier = &barrier;
                let leader_state = &leader_state;
                let finished = &finished;
                let failed = &failed;
                let mailboxes = &mailboxes;
                let slots = &slots;
                let arrived = &arrived;
                let faults = &self.faults;
                let observing = self.probe.enabled();
                let step_limit = self.step_limit;
                let user_deadline = self.step_deadline;
                move || -> Result<P::State, SimError> {
                    let mut state = prog.init(&env);
                    for step in 0..step_limit {
                        // Scripted stall: never arrive at this step's
                        // barrier. The peers' watchdog (or, if every
                        // processor stalled, our own fallback below)
                        // converts the absence into a typed timeout.
                        if faults.stalls(env.pid, step) {
                            let give_up = Instant::now() + STALL_SELF_REPORT;
                            while !failed.load(site_ord!("engine.failed.check", Ordering::Acquire))
                            {
                                if Instant::now() >= give_up {
                                    record_timeout(
                                        faults.stalled_at(step),
                                        step,
                                        leader_state,
                                        mailboxes,
                                        failed,
                                    );
                                    break;
                                }
                                crate::sync::thread::sleep(Duration::from_millis(1));
                            }
                            let e = lock_anyway(leader_state)
                                .error
                                .clone()
                                .expect("failed implies a recorded error");
                            return Err(e);
                        }

                        // Scripted crash: the body never runs. One last
                        // barrier arrival lets the leader's kernel
                        // diagnose every crashed rank of the step at
                        // once.
                        if !faults.crashes(env.pid, step) {
                            // Superstep body, in parallel with all
                            // peers. A panicking body must not strand
                            // the other threads at the barrier: contain
                            // it, report a typed error, and let
                            // everyone unwind together.
                            // SAFETY: this thread owns slot `i` outside
                            // the leader section (ProcSlot protocol).
                            let slot = unsafe { slots[i].slot() };
                            if observing {
                                slot.body_start_ns = began.elapsed().as_nanos() as u64;
                            }
                            // Swap the inbox out of the mailbox: the
                            // drained buffer left behind becomes the
                            // leader's next delivery batch, so the same
                            // allocations circulate all run.
                            mailboxes[i].take_into(&mut slot.inbox);
                            let mut ctx = BodyCtx::new(&env, &slot.inbox, &mut slot.sends);
                            let body =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    prog.step(step, &env, &mut state, &mut ctx)
                                }));
                            slot.work = ctx.work();
                            if observing {
                                slot.body_end_ns = began.elapsed().as_nanos() as u64;
                            }
                            slot.outcome = Some(match body {
                                Ok(o) => o,
                                Err(_) => {
                                    slot.panicked = true;
                                    // Participate with a harmless
                                    // outcome so the barrier still
                                    // completes.
                                    StepOutcome::Done
                                }
                            });
                        }
                        arrived[i].store(
                            step + 1,
                            site_ord!("engine.arrival.board", Ordering::Release),
                        );
                        // Watchdog: at a step with a scripted stall the
                        // plan *guarantees* a missing peer, so a short
                        // internal deadline applies even when the user
                        // set none (or a long one).
                        let scripted_stall = !faults.stalled_at(step).is_empty();
                        let timeout = if scripted_stall {
                            Some(user_deadline.map_or(STALL_WATCHDOG, |d| d.min(STALL_WATCHDOG)))
                        } else {
                            user_deadline
                        };
                        // Rendezvous; the thread completing the root
                        // arrival does the step's sequential
                        // coordination. The leader section is itself
                        // panic-contained: an unwinding leader would
                        // otherwise wedge every waiter.
                        barrier.wait_leader_watched(
                            i,
                            timeout,
                            || {
                                let missing = if scripted_stall {
                                    faults.stalled_at(step)
                                } else {
                                    (0..p)
                                        .filter(|&j| {
                                            arrived[j].load(site_ord!(
                                                "engine.arrival.scan",
                                                Ordering::Acquire
                                            )) != step + 1
                                        })
                                        .map(|j| ProcId(j as u32))
                                        .collect()
                                };
                                record_timeout(missing, step, leader_state, mailboxes, failed);
                            },
                            || {
                                let ok =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        let mut ls = lock_anyway(leader_state);
                                        if ls.error.is_some() {
                                            // A watchdog abort raced us
                                            // here: don't stack step
                                            // work on a dying run.
                                            failed.store(
                                                true,
                                                site_ord!(
                                                    "engine.failed.publish",
                                                    Ordering::Release
                                                ),
                                            );
                                            return;
                                        }
                                        leader_step(
                                            &mut ls, mailboxes, slots, step, finished, failed,
                                            began,
                                        );
                                    }));
                                if ok.is_err() {
                                    let mut ls = lock_anyway(leader_state);
                                    if ls.error.is_none() {
                                        ls.error = Some(SimError::LeaderPanicked { step });
                                    }
                                    drop(ls);
                                    for mb in mailboxes {
                                        mb.take();
                                    }
                                    failed.store(
                                        true,
                                        site_ord!("engine.failed.publish", Ordering::Release),
                                    );
                                }
                            },
                        );
                        if failed.load(site_ord!("engine.failed.check", Ordering::Acquire)) {
                            let e = lock_anyway(leader_state)
                                .error
                                .clone()
                                .expect("failed implies a recorded error");
                            return Err(e);
                        }
                        if finished.load(site_ord!("engine.finished.check", Ordering::Acquire)) {
                            return Ok(state);
                        }
                    }
                    Err(SimError::StepLimit { limit: step_limit })
                }
            })
            .collect();
        let states: Vec<Result<P::State, SimError>> = crate::sync::thread::scope_join(tasks)
            .into_iter()
            .map(|h| h.expect("processor thread panicked"))
            .collect();
        let wall = began.elapsed();

        let mut out_states = Vec::with_capacity(p);
        for s in states {
            out_states.push(s?);
        }
        let ls = leader_state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        Ok((
            RunOutcome {
                virtual_outcome: ls.kernel.into_outcome(),
                wall,
            },
            out_states,
        ))
    }

    /// Run `prog`, discarding final states.
    pub fn run<P: SpmdProgram>(&self, prog: &P) -> Result<RunOutcome, SimError> {
        self.run_with_states(prog).map(|(o, _)| o)
    }
}

/// The watchdog's abort path: record a [`SimError::BarrierTimeout`]
/// (first writer wins) and drain the mailboxes. Unlike [`abort_step`]
/// this does NOT touch the `ProcSlot`s: the watchdog may fire while a
/// straggling thread is still writing its own slot, so only
/// mutex-protected state is safe to reach from here. Nobody reads the
/// slots again — the run is over once `failed` flips.
fn record_timeout(
    missing: Vec<ProcId>,
    step: usize,
    leader_state: &Mutex<LeaderState>,
    mailboxes: &[Mailbox],
    failed: &AtomicBool,
) {
    let mut ls = lock_anyway(leader_state);
    if ls.error.is_none() {
        // First writer wins for the event too: the self-report fallback
        // runs the same path, and the firing must be counted once.
        let error = ls.kernel.timeout(missing, step);
        ls.error = Some(error);
    }
    drop(ls);
    for mb in mailboxes {
        mb.take();
    }
    failed.store(true, site_ord!("engine.failed.publish", Ordering::Release));
}

/// Record `error` and scrub every queue: an aborted step must leave no
/// stale contribution or undelivered message behind. Runs inside the
/// leader section.
fn abort_step(
    error: SimError,
    mailboxes: &[Mailbox],
    slots: &[ProcSlot],
    ls: &mut LeaderState,
    failed: &AtomicBool,
) {
    if ls.error.is_none() {
        ls.error = Some(error);
    }
    for s in slots {
        // SAFETY: leader section — the leader owns every slot.
        let slot = unsafe { s.slot() };
        slot.sends.clear();
        slot.outcome = None;
        slot.work = 0.0;
    }
    for mb in mailboxes {
        mb.take();
    }
    failed.store(true, site_ord!("engine.failed.publish", Ordering::Release));
}

/// The per-superstep sequential coordination: move every slot's
/// contribution into the shared [`StepKernel`] (pid order — the exact
/// posting order the simulator sees), then deliver its per-destination
/// batches, each mailbox locked exactly once (a batch pointer swap, in
/// the common case). Runs inside the barrier's leader section; `slots`
/// are all leader-owned here (see [`ProcSlot`]).
fn leader_step(
    ls: &mut LeaderState,
    mailboxes: &[Mailbox],
    slots: &[ProcSlot],
    step: usize,
    finished: &AtomicBool,
    failed: &AtomicBool,
    began: Instant,
) {
    let clock = || began.elapsed().as_nanos() as u64;
    let closed = ls.kernel.step(step, Some(&clock), |c, _| {
        let mut panicked = None;
        for (i, s) in slots.iter().enumerate() {
            // SAFETY: leader section — the leader owns every slot.
            let slot = unsafe { s.slot() };
            if slot.panicked && panicked.is_none() {
                panicked = Some(ProcId(i as u32));
            }
            c.push(
                std::mem::take(&mut slot.work),
                slot.outcome.take().expect("all contributions in"),
                &mut slot.sends,
                (slot.body_start_ns, slot.body_end_ns),
            );
        }
        panicked
    });
    match closed {
        Err(e) => abort_step(e, mailboxes, slots, ls, failed),
        Ok(true) => finished.store(
            true,
            site_ord!("engine.finished.publish", Ordering::Release),
        ),
        Ok(false) => {
            for (mailbox, batch) in mailboxes.iter().zip(ls.kernel.dests_mut()) {
                if !batch.is_empty() {
                    mailbox.deposit_batch(batch);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::{Message, SpmdContext, SyncScope, TreeBuilder};
    use hbsp_sim::Simulator;

    /// Total-exchange program: every processor sends its pid (as bytes)
    /// to everyone else each round.
    struct Exchange {
        rounds: usize,
    }

    impl SpmdProgram for Exchange {
        type State = Vec<(u32, u32)>; // (step received, src)
        fn init(&self, _env: &ProcEnv) -> Self::State {
            Vec::new()
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            state: &mut Self::State,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            for m in ctx.messages() {
                state.push((step as u32, m.src.0));
            }
            if step == self.rounds {
                return StepOutcome::Done;
            }
            ctx.charge(10.0);
            for q in 0..env.nprocs {
                if q != env.pid.rank() {
                    ctx.send(ProcId(q as u32), 7, &env.pid.0.to_le_bytes());
                }
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }

    fn machine() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::flat(
                1.0,
                25.0,
                &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35)],
            )
            .unwrap(),
        )
    }

    /// An HBSP^2 machine so the hierarchical barrier has real clusters.
    fn clustered_machine() -> Arc<MachineTree> {
        Arc::new(
            TreeBuilder::two_level(
                1.0,
                100.0,
                &[
                    (10.0, vec![(1.0, 1.0), (2.0, 0.5), (1.5, 0.8)]),
                    (15.0, vec![(2.0, 0.5), (3.0, 0.4)]),
                    (12.0, vec![(1.2, 0.9), (2.5, 0.45), (4.0, 0.2)]),
                ],
            )
            .unwrap(),
        )
    }

    #[test]
    fn threaded_delivery_matches_bsp_guarantee() {
        let rt = ThreadedRuntime::new(machine());
        let (out, states) = rt.run_with_states(&Exchange { rounds: 2 }).unwrap();
        assert_eq!(out.virtual_outcome.num_steps(), 3);
        for (i, st) in states.iter().enumerate() {
            // Each proc gets 3 peers' messages per round, tagged with
            // the receiving step (1 and 2).
            assert_eq!(st.len(), 6, "proc {i}");
            assert!(st.iter().filter(|(s, _)| *s == 1).count() == 3);
            assert!(st.iter().all(|(_, src)| *src != i as u32));
        }
    }

    #[test]
    fn virtual_time_matches_simulator_exactly() {
        let tree = machine();
        let prog = Exchange { rounds: 4 };
        let sim = Simulator::new(Arc::clone(&tree)).run(&prog).unwrap();
        let thr = ThreadedRuntime::new(tree)
            .run(&prog)
            .unwrap()
            .virtual_outcome;
        assert_eq!(sim.total_time, thr.total_time);
        assert_eq!(sim.proc_finish, thr.proc_finish);
        assert_eq!(sim.messages_delivered, thr.messages_delivered);
        for (a, b) in sim.steps.iter().zip(&thr.steps) {
            assert_eq!(a.hrelation, b.hrelation);
            assert_eq!(a.release_max, b.release_max);
            assert_eq!(a.work_units, b.work_units);
            assert_eq!(a.traffic, b.traffic);
        }
    }

    #[test]
    fn both_barriers_agree_with_simulator_on_clustered_machine() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 5 };
        let sim = Simulator::new(Arc::clone(&tree)).run(&prog).unwrap();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .run(&prog)
                .unwrap()
                .virtual_outcome;
            assert_eq!(sim.total_time, thr.total_time, "{kind:?}");
            assert_eq!(sim.proc_finish, thr.proc_finish, "{kind:?}");
            assert_eq!(sim.messages_delivered, thr.messages_delivered, "{kind:?}");
        }
    }

    #[test]
    fn errors_propagate_from_leader() {
        struct Mixed;
        impl SpmdProgram for Mixed {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if env.pid.0.is_multiple_of(2) {
                    StepOutcome::Done
                } else {
                    StepOutcome::Continue(SyncScope::global(&env.tree))
                }
            }
        }
        let rt = ThreadedRuntime::new(machine());
        assert_eq!(
            rt.run(&Mixed).unwrap_err(),
            SimError::TerminationMismatch { step: 0 }
        );
    }

    /// Regression for the take-after-error audit: an aborting step must
    /// drain every mailbox and per-proc send buffer, leaving no queued
    /// messages behind.
    #[test]
    fn aborted_step_leaves_no_queued_messages() {
        let tree = machine();
        let p = tree.num_procs();
        let mailboxes: Vec<Mailbox> = (0..p).map(|_| Mailbox::new()).collect();
        let slots: Vec<ProcSlot> = (0..p).map(|_| ProcSlot::new()).collect();
        // Simulate mid-run state: pending deliveries and posted sends.
        mailboxes[1].deposit(Message::new(ProcId(0), ProcId(1), 0, vec![1, 2, 3]));
        for (i, s) in slots.iter().enumerate() {
            // SAFETY: single-threaded test — no concurrent slot holder.
            let slot = unsafe { s.slot() };
            slot.sends.push(ProcId(i as u32), ProcId(0), 0, &[9; 16]);
            // Mixed outcomes: a termination mismatch.
            slot.outcome = Some(if i == 0 {
                StepOutcome::Done
            } else {
                StepOutcome::Continue(SyncScope::global(&tree))
            });
        }
        let mut ls = LeaderState {
            kernel: StepKernel::new(
                Arc::clone(&tree),
                NetConfig::pvm_like(),
                FaultPlan::new(),
                hbsp_obs::noop(),
                false,
                None,
            )
            .unwrap(),
            error: None,
        };
        let finished = AtomicBool::new(false);
        let failed = AtomicBool::new(false);
        leader_step(
            &mut ls,
            &mailboxes,
            &slots,
            3,
            &finished,
            &failed,
            Instant::now(),
        );
        assert!(failed.load(Ordering::Acquire));
        assert_eq!(ls.error, Some(SimError::TerminationMismatch { step: 3 }));
        for (q, mb) in mailboxes.iter().enumerate() {
            assert!(mb.is_empty(), "mailbox {q} must be drained");
        }
        for (i, s) in slots.iter().enumerate() {
            // SAFETY: single-threaded test — no concurrent slot holder.
            let slot = unsafe { s.slot() };
            assert!(slot.sends.is_empty(), "send buffer {i} must be cleared");
            assert!(slot.outcome.is_none(), "stale outcome {i} must be cleared");
        }
    }

    #[test]
    fn step_limit_enforced() {
        struct Forever;
        impl SpmdProgram for Forever {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                _s: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let rt = ThreadedRuntime::new(machine()).step_limit(5);
        assert_eq!(
            rt.run(&Forever).unwrap_err(),
            SimError::StepLimit { limit: 5 }
        );
    }

    #[test]
    fn panicking_program_yields_typed_error_not_deadlock() {
        struct Bomb;
        impl SpmdProgram for Bomb {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if step == 1 && env.pid.0 == 2 {
                    panic!("boom");
                }
                if step == 3 {
                    return StepOutcome::Done;
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let rt = ThreadedRuntime::new(machine());
        let err = rt.run(&Bomb).unwrap_err();
        assert_eq!(
            err,
            SimError::ProgramPanicked {
                pid: ProcId(2),
                step: 1
            }
        );
    }

    #[test]
    fn traced_timelines_match_the_simulator() {
        let tree = machine();
        let prog = Exchange { rounds: 3 };
        let sim = Simulator::new(Arc::clone(&tree))
            .trace(true)
            .run(&prog)
            .unwrap();
        let thr = ThreadedRuntime::new(Arc::clone(&tree))
            .trace(true)
            .run(&prog)
            .unwrap()
            .virtual_outcome;
        let sim_tls = sim.timelines.expect("simulator traced");
        let thr_tls = thr.timelines.expect("runtime traced");
        assert_eq!(sim_tls.len(), thr_tls.len());
        for (a, b) in sim_tls.iter().zip(&thr_tls) {
            assert_eq!(a.pid, b.pid);
            assert_eq!(a.spans, b.spans, "P{} timelines diverge", a.pid.0);
        }
        // Untraced runs stay lean.
        let plain = ThreadedRuntime::new(tree)
            .run(&prog)
            .unwrap()
            .virtual_outcome;
        assert!(plain.timelines.is_none());
    }

    #[test]
    fn wall_clock_is_measured() {
        let rt = ThreadedRuntime::new(machine());
        let out = rt.run(&Exchange { rounds: 1 }).unwrap();
        assert!(out.wall > Duration::ZERO);
    }

    #[test]
    fn scripted_crash_matches_simulator() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 5 };
        let plan = FaultPlan::new().crash(ProcId(3), 2).crash(ProcId(6), 2);
        let sim_err = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap_err();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr_err = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run(&prog)
                .unwrap_err();
            assert_eq!(sim_err, thr_err, "{kind:?}");
        }
        assert_eq!(
            sim_err,
            SimError::ProcCrashed {
                pids: vec![ProcId(3), ProcId(6)],
                step: 2
            }
        );
    }

    #[test]
    fn scripted_stall_times_out_identically_on_both_engines() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 5 };
        let plan = FaultPlan::new().stall(ProcId(4), 1);
        let sim_err = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap_err();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr_err = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run(&prog)
                .unwrap_err();
            assert_eq!(sim_err, thr_err, "{kind:?}");
        }
        assert_eq!(
            sim_err,
            SimError::BarrierTimeout {
                missing: vec![ProcId(4)],
                step: 1
            }
        );
    }

    #[test]
    fn every_processor_stalling_still_terminates() {
        let tree = machine();
        let p = tree.num_procs();
        let mut plan = FaultPlan::new();
        for i in 0..p {
            plan = plan.stall(ProcId(i as u32), 1);
        }
        let err = ThreadedRuntime::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&Exchange { rounds: 4 })
            .unwrap_err();
        let sim_err = Simulator::new(tree)
            .faults(plan)
            .run(&Exchange { rounds: 4 })
            .unwrap_err();
        assert_eq!(err, sim_err);
        assert!(matches!(err, SimError::BarrierTimeout { step: 1, .. }));
    }

    #[test]
    fn faults_on_ranks_the_machine_lacks_are_refused_by_both_engines() {
        let tree = Arc::new(TreeBuilder::homogeneous(1.0, 20.0, 4).unwrap());
        let prog = Exchange { rounds: 4 };
        for (plan, step) in [
            (FaultPlan::new().crash(ProcId(99), 0), 0),
            (FaultPlan::new().stall(ProcId(99), 1), 1),
        ] {
            let want = SimError::NoSuchFaultTarget {
                pid: ProcId(99),
                step,
            };
            let sim = Simulator::new(Arc::clone(&tree))
                .faults(plan.clone())
                .run(&prog);
            assert_eq!(sim.unwrap_err(), want, "simulator, {plan:?}");
            let thr = ThreadedRuntime::new(Arc::clone(&tree))
                .faults(plan.clone())
                .run(&prog);
            assert_eq!(thr.unwrap_err(), want, "threads, {plan:?}");
        }
    }

    #[test]
    fn straggle_and_corruption_match_simulator_bit_for_bit() {
        let tree = clustered_machine();
        let prog = Exchange { rounds: 4 };
        let plan = FaultPlan::new()
            .straggle(ProcId(2), 1, 8.0)
            .drop_msgs(ProcId(5), 2)
            .truncate(ProcId(0), 3, 0);
        let sim = Simulator::new(Arc::clone(&tree))
            .faults(plan.clone())
            .run(&prog)
            .unwrap();
        for kind in [BarrierKind::Central, BarrierKind::Hierarchical] {
            let thr = ThreadedRuntime::new(Arc::clone(&tree))
                .barrier(kind)
                .faults(plan.clone())
                .run(&prog)
                .unwrap()
                .virtual_outcome;
            assert_eq!(sim.total_time, thr.total_time, "{kind:?}");
            assert_eq!(sim.proc_finish, thr.proc_finish, "{kind:?}");
            assert_eq!(sim.messages_delivered, thr.messages_delivered, "{kind:?}");
        }
    }

    #[test]
    fn generous_step_deadline_never_fires() {
        let rt = ThreadedRuntime::new(clustered_machine()).step_deadline(Duration::from_secs(120));
        let out = rt.run(&Exchange { rounds: 5 }).unwrap();
        assert_eq!(out.virtual_outcome.num_steps(), 6);
    }

    #[test]
    fn step_deadline_catches_a_hung_body() {
        /// Rank 1's body sleeps far past the deadline at step 1.
        struct Hang;
        impl SpmdProgram for Hang {
            type State = ();
            fn init(&self, _e: &ProcEnv) {}
            fn step(
                &self,
                step: usize,
                env: &ProcEnv,
                _st: &mut (),
                _c: &mut dyn SpmdContext,
            ) -> StepOutcome {
                if step == 1 && env.pid.0 == 1 {
                    std::thread::sleep(Duration::from_secs(5));
                }
                if step == 2 {
                    return StepOutcome::Done;
                }
                StepOutcome::Continue(SyncScope::global(&env.tree))
            }
        }
        let rt = ThreadedRuntime::new(machine()).step_deadline(Duration::from_millis(50));
        let err = rt.run(&Hang).unwrap_err();
        match err {
            SimError::BarrierTimeout { missing, step } => {
                assert_eq!(step, 1);
                assert_eq!(missing, vec![ProcId(1)], "the sleeper is named");
            }
            other => panic!("expected BarrierTimeout, got {other:?}"),
        }
    }
}
