//! `perfbench`: the HBSP^k benchmark. One closed-loop client thread
//! runs one workload for a fixed wall time, checks every output, and
//! prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//! metrics) as one JSON object on the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload drain|collectives|apps --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root: it reads `machines/` and
//! `fixtures/` from the working directory. See `perfbench/README.md`
//! for what each workload and metric means.

mod apps;
mod coll;
mod drain;
mod gen;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::exit;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::{mean, median, quantile};

/// Set-ups per untraced run, `setup_s` being their median: as many as
/// the first set-up says fit in `SETUP_BUDGET`, at least `MIN_SETUPS`
/// and at most `MAX_SETUPS`. They are spread evenly over the run, so
/// they meet the same host conditions as the operations.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Operation time between two readings of the host yardstick. Each
/// reading closes a group of whole cycles, and the gated wall metrics
/// take one sample per group, divided by that reading.
const STICK_EVERY: Duration = Duration::from_millis(20);

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_ref", "op/ref"),
    ("latency_p50_ref", "ref"),
    ("virtual_time", "model_units"),
    ("model_err", "ratio"),
    ("adapt_gain", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// layer a workload never calls on its request path reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sched.run_ms", "ms"),
    ("sched.self_ms", "ms"),
    ("sched.batches", "count"),
    ("sched.us_per_job_1k", "us"),
    ("sched.us_per_job_4k", "us"),
    ("core.carve_us", "us"),
    ("core.carve_calls", "count"),
    ("collectives.best_plan_us", "us"),
    ("collectives.best_plan_calls", "count"),
    ("collectives.predict_us", "us"),
    ("check.verify_dag_ms", "ms"),
    ("check.verify_claims_us", "us"),
    ("obs.recorder_read_us", "us"),
    ("sim.run_us", "us"),
    ("sim.supersteps", "count"),
    ("runtime.spawn_us", "us"),
    ("runtime.empty_step_us", "us"),
    ("runtime.hier_over_central", "ratio"),
    ("runtime.barrier_wait_us", "us"),
    ("runtime.body_us", "us"),
    ("runtime.words_per_s", "word/s"),
    ("hbsplib.codec_encode_mb_s", "MB/s"),
    ("hbsplib.codec_decode_mb_s", "MB/s"),
    ("obs.probe_tax", "ratio"),
    ("obs.probe_tax_p2", "ratio"),
    ("apps.sort_ms", "ms"),
    ("apps.matvec_ms", "ms"),
    ("apps.stencil_ms", "ms"),
    ("hbsplib.adaptive_ms", "ms"),
    ("hbsplib.replans", "count"),
    ("obs.calibrate_us", "us"),
    ("collectives.retune_us", "us"),
    ("runtime.threads_over_sim", "ratio"),
    ("ops.supersteps", "count"),
    ("ops.messages", "count"),
    ("ops.words_l1", "count"),
    ("ops.words_l2", "count"),
    ("ops.words_l3", "count"),
    ("core.parse_ms", "ms"),
    ("collectives.lower_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.latency_p90_ms", "ms"),
    ("host.ref_ms", "ms"),
];

/// One completed operation of a workload.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// Wall time inside the program (output checks excluded).
    pub wall: Duration,
    /// Operations this call completed, for `ops_per_ref` and `attempted`
    /// (a drain completes one per job).
    pub units: u64,
    /// Of `units`, how many errored or failed their output check.
    pub failed: u64,
    /// Model time of the operation.
    pub vt: f64,
    /// |predicted − observed| / observed model time.
    pub err: f64,
    /// Supersteps, messages and words per level 1..=3 the engine reports.
    pub supersteps: u64,
    pub messages: u64,
    pub words: [u64; 3],
}

/// Why a set-up did not produce a runnable workload.
pub enum SetupError {
    /// An input is missing or malformed: nothing was measured.
    Input(String),
    /// A correctness reference disagreed: the program is wrong.
    Check(String),
}

impl From<String> for SetupError {
    fn from(e: String) -> Self {
        SetupError::Input(e)
    }
}

pub trait Workload {
    /// Operations in one cycle of the workload's fixed operation mix.
    fn cycle(&self) -> usize;
    /// Run operation `i` (closed loop: returns when it is done).
    fn op(&mut self, i: u64, tr: &Tracer) -> Op;
    /// Static-arm over adaptive model time (1 without an adaptive arm).
    fn adapt_gain(&self) -> f64 {
        1.0
    }
    /// Per-layer measurements of the traced run, after the loop.
    fn layers(&mut self, tr: &Tracer, ops: &[Op], m: &mut BTreeMap<&'static str, f64>);
    /// Set-up time spent parsing and lowering, in ms.
    fn setup_parts(&self) -> (f64, f64);
    /// A one-time cross-engine check, run once after the first set-up.
    fn cross_check(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A workload's input files, hashed into the fingerprint.
fn inputs(workload: &str) -> &'static [&'static str] {
    match workload {
        "drain" => &["machines/campus.hbsp", "fixtures/jobs_1000.jobs"],
        "collectives" => &["machines/grid3.hbsp"],
        _ => &["machines/campus.hbsp", "fixtures/straggler_ramp.faults"],
    }
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, SetupError> {
    Ok(match workload {
        "drain" => Box::new(drain::Drain::setup(seed)?),
        "collectives" => Box::new(coll::Collectives::setup(seed)?),
        "apps" => Box::new(apps::Apps::setup(seed)?),
        other => return Err(SetupError::Input(format!("unknown workload `{other}`"))),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload drain|collectives|apps --seed N --seconds S --trace 0|1"
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let known = ["drain", "collectives", "apps"].contains(&a.workload.as_str());
    if !(known && a.seconds > 0.0 && a.seconds <= 600.0) {
        usage();
    }
    a
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    println!("{}", result_line(false, 1, 1, &[]));
    exit(1)
}

fn main() {
    let args = parse_args();
    let fingerprint = util::fingerprint(&args.workload, args.seed, inputs(&args.workload));
    println!("{{\"fingerprint\":{fingerprint}}}");

    // Set-up builds everything from scratch. An untraced run repeats
    // it between cycles of the loop below, replacing the workload.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut w = timed_setup(&args, &mut setup_s);
    if let Err(e) = w.cross_check() {
        fail(&format!("cross-engine check failed: {e}"));
    }
    let setups = if args.trace {
        1
    } else {
        let fit = SETUP_BUDGET.as_secs_f64() / setup_s[0].max(1e-6);
        (fit.ceil() as usize).clamp(MIN_SETUPS, MAX_SETUPS)
    };

    // The closed loop. A traced run alternates whole cycles with
    // tracing on and off, so the difference is the tracing overhead.
    let on = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let budget = Duration::from_secs_f64(args.seconds);
    let cycle = w.cycle() as u64;
    let t0 = Instant::now();
    let mut ops: Vec<Op> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut i = 0u64;
    let mut stick = util::Yardstick::new();
    // (cycles done, yardstick ms) at each reading.
    let mut readings: Vec<(usize, f64)> = Vec::new();
    let mut since = Duration::ZERO;
    // Whole cycles only, at least two.
    while !i.is_multiple_of(cycle) || t0.elapsed() < budget || ops.len() < 2 * cycle as usize {
        if i.is_multiple_of(cycle) && setup_s.len() < setups {
            let due = budget.mul_f64(setup_s.len() as f64 / setups as f64);
            if t0.elapsed() >= due {
                drop(w);
                w = timed_setup(&args, &mut setup_s);
            }
        }
        let use_on = args.trace && (i / cycle).is_multiple_of(2);
        let tr = if use_on { &on } else { &off };
        let op = tr.span("op", i, || w.op(i, tr));
        since += op.wall;
        ops.push(op);
        traced.push(use_on);
        i += 1;
        if i.is_multiple_of(cycle) && since >= STICK_EVERY {
            readings.push(((i / cycle) as usize, stick.time_ms()));
            since = Duration::ZERO;
        }
    }
    if readings
        .last()
        .is_none_or(|&(end, _)| end * (cycle as usize) < ops.len())
    {
        readings.push((ops.len() / cycle as usize, stick.time_ms()));
    }

    let attempted: u64 = ops.iter().map(|o| o.units).sum();
    let failed: u64 = ops.iter().map(|o| o.failed).sum();
    // Latency samples are per cycle: the mean wall time per operation
    // over one pass of the operation mix. A raw per-operation
    // percentile of a mix jumps between the modes of its operations.
    let cycles: Vec<&[Op]> = ops.chunks(cycle as usize).collect();
    let cycle_ms = |sel: &dyn Fn(usize) -> bool| -> Vec<f64> {
        cycles
            .iter()
            .enumerate()
            .filter(|(k, _)| sel(*k))
            .map(|(_, c)| util::ms(c.iter().map(|o| o.wall).sum::<Duration>()) / c.len() as f64)
            .collect()
    };

    let metrics: Vec<(&str, &str, f64)> = if !args.trace {
        // One sample per yardstick group: mean wall time per operation
        // over the group's cycles, and operations per busy wall time,
        // both in units of the reading that closed the group.
        let (mut latency, mut rate) = (Vec::new(), Vec::new());
        let mut start = 0;
        for &(end, stick_ms) in &readings {
            let group = &ops[start * cycle as usize..end * cycle as usize];
            let busy_ms = util::ms(group.iter().map(|o| o.wall).sum::<Duration>());
            let units: u64 = group.iter().map(|o| o.units).sum();
            latency.push(busy_ms / group.len() as f64 / stick_ms);
            rate.push(units as f64 * stick_ms / busy_ms);
            start = end;
        }
        let values = [
            median(&setup_s),
            median(&rate),
            median(&latency),
            // Model time is a pure function of the inputs, and every
            // operation was checked against its reference: one cycle
            // gives the exact per-operation mean.
            mean(
                &ops[..cycle as usize]
                    .iter()
                    .map(|o| o.vt)
                    .collect::<Vec<_>>(),
            ),
            mean(
                &ops[..cycle as usize]
                    .iter()
                    .map(|o| o.err)
                    .collect::<Vec<_>>(),
            ),
            w.adapt_gain(),
            (attempted - failed) as f64 / attempted.max(1) as f64,
            util::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    } else {
        let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
        let per_op =
            |f: &dyn Fn(&Op) -> u64| mean(&ops.iter().map(|o| f(o) as f64).collect::<Vec<_>>());
        m.insert("ops.supersteps", per_op(&|o| o.supersteps));
        m.insert("ops.messages", per_op(&|o| o.messages));
        m.insert("ops.words_l1", per_op(&|o| o.words[0]));
        m.insert("ops.words_l2", per_op(&|o| o.words[1]));
        m.insert("ops.words_l3", per_op(&|o| o.words[2]));
        let (parse_ms, lower_ms) = w.setup_parts();
        m.insert("core.parse_ms", parse_ms);
        m.insert("collectives.lower_ms", lower_ms);
        let traced_cycle = |k: usize| traced[k * cycle as usize];
        let traced_p50 = median(&cycle_ms(&traced_cycle));
        m.insert("trace.latency_p50_ms", traced_p50);
        m.insert(
            "trace.latency_p90_ms",
            quantile(&cycle_ms(&|k| !traced_cycle(k)), 0.9),
        );
        m.insert(
            "trace.overhead_ms",
            traced_p50 - median(&cycle_ms(&|k| !traced_cycle(k))),
        );
        let traced_ops: Vec<Op> = ops
            .iter()
            .zip(&traced)
            .filter(|(_, &t)| t)
            .map(|(o, _)| o.clone())
            .collect();
        w.layers(&on, &traced_ops, &mut m);
        m.insert("trace.spans", on.len() as f64);
        m.insert(
            "host.ref_ms",
            median(&readings.iter().map(|r| r.1).collect::<Vec<_>>()),
        );
        write_trace(&args, &fingerprint, &on);
        PER_LAYER.iter().map(|&(n, u)| (n, u, m[n])).collect()
    };

    let correct = failed == 0;
    if !correct {
        eprintln!("perfbench: {failed} of {attempted} operations failed their output check");
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        exit(1)
    }
}

/// One timed set-up, its time appended to `setup_s`. Exits on a
/// missing input (2) or a failed reference check (1).
fn timed_setup(args: &Args, setup_s: &mut Vec<f64>) -> Box<dyn Workload> {
    let t0 = Instant::now();
    match setup(&args.workload, args.seed) {
        Ok(built) => {
            setup_s.push(t0.elapsed().as_secs_f64());
            built
        }
        Err(SetupError::Input(e)) => {
            eprintln!("perfbench: {e}");
            exit(2)
        }
        Err(SetupError::Check(e)) => fail(&format!("set-up check failed: {e}")),
    }
}

/// Write the traced run's spans, fingerprint first, under
/// `perfbench/out/`.
fn write_trace(args: &Args, fingerprint: &str, tr: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let text = format!("{{\"fingerprint\":{fingerprint}}}\n{}", tr.render());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            tr.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
