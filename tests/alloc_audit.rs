//! Heap-allocation audit of the per-superstep hot path.
//!
//! The engines batch every superstep's traffic into flat SoA arenas
//! (`MsgBatch`) that are reused across steps, so in steady state the
//! cost of a superstep must not scale allocations with the number of
//! messages: posting a message appends bytes into an existing arena,
//! delivery moves offset-table entries between reused batches, and the
//! mailbox circulates whole buffers by pointer swap.
//!
//! This test pins that property with a counting global allocator: the
//! same program run with 8× the messages per step must allocate (to
//! within a small constant for one-time arena growth) exactly as often
//! as the 1-message-per-step run. Any per-message allocation that
//! sneaks back into the engine, the mailbox, or the codec multiplies
//! with `messages × steps` and blows the bound by orders of magnitude.
//!
//! The tests that read the process-wide counter take `AUDIT_LOCK` so
//! no concurrent test in this binary pollutes it.

use hbsp_core::{ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope, TreeBuilder};
use hbsp_runtime::ThreadedRuntime;
use hbsp_sim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Serializes the tests in this binary: the allocation counter is
/// process-wide, so a concurrently-running test would pollute it.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

/// Take `AUDIT_LOCK` even if an earlier test panicked while holding
/// it, so one failure does not cascade into the others.
fn serial() -> MutexGuard<'static, ()> {
    AUDIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts every heap allocation (alloc and realloc), process-wide and
/// per thread.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// drop-free, so the allocator can touch it without allocating.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STEPS: usize = 400;

/// Every processor sends `k` fixed-size messages per step around a
/// ring, then drains its inbox; payload size is constant so arena
/// capacities stabilize after the first few steps.
struct Ring {
    k: usize,
}

impl SpmdProgram for Ring {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest
                .wrapping_mul(31)
                .wrapping_add(m.src.0 as u64 + m.payload[0] as u64);
        }
        if step == STEPS {
            return StepOutcome::Done;
        }
        let p = env.nprocs;
        let next = ProcId(((env.pid.rank() + 1) % p) as u32);
        for i in 0..self.k {
            ctx.send_with(next, i as u32, 16, &mut |buf| {
                buf.fill((step % 251) as u8);
            });
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

fn machine() -> Arc<hbsp_core::MachineTree> {
    Arc::new(
        TreeBuilder::flat(
            1.0,
            20.0,
            &[(1.0, 1.0), (1.3, 0.8), (1.9, 0.55), (2.4, 0.4)],
        )
        .unwrap(),
    )
}

/// Allocations by every thread of the process while `f` runs.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Allocations by the calling thread alone while `f` runs.
fn thread_allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (THREAD_ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn steady_state_supersteps_allocate_nothing_per_message() {
    let _serial = serial();
    let tree = machine();

    // Warmup both engines once so lazily-initialized process state
    // (thread-pool bookkeeping, panic machinery, statics) is paid for
    // outside the measured runs.
    Simulator::new(Arc::clone(&tree))
        .run_with_states(&Ring { k: 8 })
        .unwrap();
    ThreadedRuntime::new(Arc::clone(&tree))
        .run_with_states(&Ring { k: 8 })
        .unwrap();

    // One-time arena growth may differ between the k=1 and k=8 runs
    // (larger batches take a few more capacity doublings); a
    // per-message allocation would instead differ by at least
    // 7 messages × 400 steps × 4 procs = 11200.
    const SLACK: usize = 512;

    for engine in ["simulator", "threaded"] {
        let run = |k: usize| {
            let prog = Ring { k };
            let tree = Arc::clone(&tree);
            match engine {
                "simulator" => {
                    allocs_during(|| Simulator::new(tree).run_with_states(&prog).unwrap().1)
                }
                _ => allocs_during(|| ThreadedRuntime::new(tree).run_with_states(&prog).unwrap().1),
            }
        };
        let (a1, _) = run(1);
        let (a8, states) = run(8);
        assert!(!states.iter().all(|&d| d == 0), "program really ran");
        assert!(
            a8 <= a1 + SLACK,
            "{engine}: k=8 run allocated {a8} times vs {a1} for k=1 — \
             more than {SLACK} extra means a per-message allocation is back \
             on the hot path"
        );
    }
}

/// The runtime's sync facade (`hbsp_runtime::sync`) is free on the
/// hot path: in a normal (non-exploration) build every primitive —
/// atomics, mutex lock/unlock, condvar notify, `Instant::now` —
/// forwards straight to `std` and performs zero heap allocations in
/// steady state. This holds even when the `model` feature is unified
/// into the build (workspace `cargo test` builds `hbsp-runtime` with
/// it via `hbsp-race`): outside `weave::explore` the facade passes
/// through, and the model metadata is allocated lazily only inside an
/// exploration. The engine-level cost is pinned by
/// `steady_state_supersteps_allocate_nothing_per_message`, which runs
/// the whole ported runtime (barrier, engine, mailbox) through the
/// facade.
#[test]
fn sync_facade_adds_no_allocations_to_hot_primitives() {
    use hbsp_runtime::sync::atomic::{AtomicU64, Ordering as O};
    use hbsp_runtime::sync::{Condvar, Instant, Mutex};
    let _serial = serial();
    let m = Mutex::new(0u64);
    let cv = Condvar::new();
    let a = AtomicU64::new(0);
    // One warmup round so any lazily-initialized std state (e.g. the
    // first clock read) is paid for outside the measured loop.
    *m.lock().unwrap() += Instant::now().elapsed().as_nanos() as u64;
    cv.notify_one();
    // Every primitive measured here runs on this thread, so count this
    // thread's allocations only: the harness and other test threads
    // allocate concurrently, and the bound is exactly zero.
    let (n, _) = thread_allocs_during(|| {
        for i in 0..10_000u64 {
            a.fetch_add(i, O::Release);
            a.load(O::Acquire);
            let mut g = m.lock().unwrap();
            *g = g.wrapping_add(i);
            drop(g);
            cv.notify_one();
            std::hint::black_box(Instant::now());
        }
    });
    assert_eq!(
        n, 0,
        "facade primitives allocated {n} times in 10k iterations — the \
         facade must be a zero-cost forwarder outside explorations"
    );
    assert!(!hbsp_runtime::sync::is_modeling());
}

/// Arming the flight recorder must not put allocations back on the
/// per-superstep hot path: its ring is a fixed arena of atomics sized
/// at arm time, and `on_step` only stores into it. The probe-on run
/// therefore may allocate only a constant amount more than probe-off
/// (the arena itself plus one-time probe bookkeeping) — never
/// per-step. A per-step allocation in the probe path multiplies with
/// 400 steps and blows the bound immediately.
#[test]
fn armed_flight_recorder_allocates_nothing_per_superstep() {
    use hbsp_obs::FlightRecorder;
    let _serial = serial();
    let tree = machine();
    let prog = Ring { k: 8 };

    // Arena growth inside the engines is already paid for by warmup;
    // the recorder's own arena is allocated at arm time (the warmup
    // run arms it), so the measured deltas compare like with like.
    const SLACK: usize = 512;

    for engine in ["simulator", "threaded"] {
        let rec = Arc::new(FlightRecorder::new());
        let run = |probe: Option<Arc<FlightRecorder>>| {
            let tree = Arc::clone(&tree);
            match engine {
                "simulator" => {
                    let mut sim = Simulator::new(tree);
                    if let Some(p) = probe {
                        sim = sim.probe(p);
                    }
                    allocs_during(|| sim.run_with_states(&prog).unwrap().1)
                }
                _ => {
                    let mut rt = ThreadedRuntime::new(tree);
                    if let Some(p) = probe {
                        rt = rt.probe(p);
                    }
                    allocs_during(|| rt.run_with_states(&prog).unwrap().1)
                }
            }
        };
        // Warmup arms the recorder (first on_step sizes the arena) and
        // pays the engines' one-time costs.
        run(Some(rec.clone()));
        let (off, _) = run(None);
        let (on, states) = run(Some(rec.clone()));
        assert!(!states.iter().all(|&d| d == 0), "program really ran");
        assert!(rec.recorded() > 0, "recorder saw the run");
        assert!(
            on <= off + SLACK,
            "{engine}: probe-on run allocated {on} times vs {off} probe-off — \
             more than {SLACK} extra means the armed flight recorder \
             allocates on the per-superstep hot path"
        );
    }
}

/// The two engines agree bit-for-bit on the audited program — the SoA
/// delivery path preserves ordering exactly.
#[test]
fn audited_program_is_bit_identical_across_engines() {
    let _serial = serial();
    let tree = machine();
    for k in [1usize, 8] {
        let prog = Ring { k };
        let (sim, sim_states) = Simulator::new(Arc::clone(&tree))
            .run_with_states(&prog)
            .unwrap();
        let (thr, thr_states) = ThreadedRuntime::new(Arc::clone(&tree))
            .run_with_states(&prog)
            .unwrap();
        assert_eq!(sim_states, thr_states, "k={k}");
        assert_eq!(sim.total_time, thr.virtual_outcome.total_time, "k={k}");
    }
}
