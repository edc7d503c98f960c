//! The `drain` workload: `Scheduler::run` drains a generated 1000-job
//! graph on `machines/campus.hbsp` with the simulator engine and batched
//! admission. One drain is one call; each job is one operation.
//!
//! The traced run attributes a drain's wall time to the layers the
//! scheduler calls internally by *replaying* those calls from the
//! report's placements: pricing (`carve` + `best_plan` per cached
//! price), per-job lowering (`carve` + `best_plan`), `predict`,
//! `verify_dag`, `verify_claims` per batch, the recorder read per batch
//! at the same history length, and each job alone on the simulator as
//! an estimate of the engine's share. `sched.self_ms` is the drain time
//! these replays leave unexplained.

use crate::coll::{codec_rates, inits, Empty};
use crate::trace::Tracer;
use crate::util::{self, median, timed, Rng};
use crate::{gen, Op, SetupError, Workload};
use hbsp::collectives::tune::best_plan;
use hbsp::collectives::{predict, CollectiveKind, ScheduleProgram};
use hbsp::core::{topology, MachineTree};
use hbsp::lib::Executor;
use hbsp::obs::{CausalKind, Recorder};
use hbsp::sched::{Engine, Job, JobWork, RunOptions, SchedReport, Scheduler};
use hbsp::sim::Simulator;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const JOBS: usize = 1000;

const SIM: RunOptions = RunOptions {
    engine: Engine::Simulator,
    serial: false,
    adapt: None,
};

pub struct Drain {
    seed: u64,
    tree: Arc<MachineTree>,
    sched: Scheduler,
    /// Set-up reference: makespan and every job's final states and
    /// leaves, equal on both engines.
    reference: SchedReport,
    /// The last traced drain's report, for the layer replays.
    last: Option<SchedReport>,
    parse_ms: f64,
}

/// Parse a generated graph into a scheduler on `tree`.
fn scheduler(tree: &Arc<MachineTree>, text: &str) -> Result<Scheduler, String> {
    let (jobs, errors) = hbsp::bench::jobfile::parse(text);
    if let Some(e) = errors.first() {
        return Err(format!("generated job graph: {e}"));
    }
    let mut sched = Scheduler::new(tree.clone());
    for pj in jobs {
        sched.submit(pj.job);
    }
    Ok(sched)
}

/// A drain that ran and whose every job decoded cleanly.
fn clean(
    r: Result<SchedReport, hbsp::sched::SchedError>,
    engine: &str,
) -> Result<SchedReport, String> {
    let r = r.map_err(|e| format!("{engine} drain: {e}"))?;
    if r.clean() {
        Ok(r)
    } else {
        Err(format!("{engine} drain: report not clean"))
    }
}

/// Jobs of `got` whose results differ from `want` (all of them when
/// the makespans differ).
fn mismatches(got: &SchedReport, want: &SchedReport) -> u64 {
    if got.total_time != want.total_time || got.jobs.len() != want.jobs.len() {
        return want.jobs.len() as u64;
    }
    got.jobs
        .iter()
        .zip(&want.jobs)
        .filter(|(g, w)| g.error().is_some() || g.states != w.states || g.leaves != w.leaves)
        .count() as u64
}

impl Drain {
    pub fn setup(seed: u64) -> Result<Drain, SetupError> {
        let text = util::read("machines/campus.hbsp")?;
        let (tree, parse) = timed(|| topology::parse(&text));
        let tree = Arc::new(tree.map_err(|e| format!("machines/campus.hbsp: {e}"))?);
        let sched = scheduler(&tree, &gen::job_graph(JOBS, seed))?;
        let reference = clean(sched.run(&SIM), "sim").map_err(SetupError::Check)?;
        Ok(Drain {
            seed,
            tree,
            sched,
            reference,
            last: None,
            parse_ms: util::ms(parse),
        })
    }
}

impl Workload for Drain {
    fn cycle(&self) -> usize {
        1
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> Op {
        let (res, wall) = timed(|| tr.span("sched.run", i, || self.sched.run(&SIM)));
        let mut op = Op {
            wall,
            units: JOBS as u64,
            ..Op::default()
        };
        match res {
            Ok(report) => {
                op.failed = mismatches(&report, &self.reference);
                op.vt = report.total_time;
                let errs: Vec<f64> = report
                    .batches
                    .iter()
                    .map(|b| (b.predicted - b.observed()).abs() / b.observed())
                    .collect();
                op.err = util::mean(&errs);
                op.supersteps = supersteps(&report).iter().sum::<usize>() as u64;
                tr.count("batches", report.batches.len() as f64);
                tr.count("supersteps", op.supersteps as f64);
                if tr.on() {
                    self.last = Some(report);
                }
            }
            Err(e) => {
                eprintln!("perfbench: drain: {e}");
                op.failed = JOBS as u64;
            }
        }
        op
    }

    fn setup_parts(&self) -> (f64, f64) {
        (self.parse_ms, 0.0)
    }

    /// The threaded engine must drain the same graph bit for bit like
    /// the simulator. Its ~500 batches each start eight threads, so on
    /// an oversubscribed host its wall time swings with other load;
    /// it runs once, after the first set-up and outside its time.
    fn cross_check(&self) -> Result<(), String> {
        let threads = clean(
            self.sched.run(&RunOptions {
                engine: Engine::Threads,
                ..SIM
            }),
            "threads",
        )?;
        match mismatches(&threads, &self.reference) {
            0 => Ok(()),
            bad => Err(format!("threads and sim drains differ on {bad} jobs")),
        }
    }

    fn layers(&mut self, tr: &Tracer, _ops: &[Op], m: &mut BTreeMap<&'static str, f64>) {
        let report = self.last.take().expect("a traced drain ran");
        let parent = tr.last_named("sched.run").expect("a traced drain ran");
        let run_ms = median(
            &tr.durations("sched.run")
                .iter()
                .map(|d| util::ms(*d))
                .collect::<Vec<_>>(),
        );
        let replay = Replay {
            tree: &self.tree,
            jobs: self.sched.jobs(),
            report: &report,
        };
        let children = replay.run(tr, parent, m);
        m.insert("sched.run_ms", run_ms);
        m.insert("sched.self_ms", run_ms - children);
        m.insert("sched.batches", report.batches.len() as f64);
        m.insert("sched.us_per_job_1k", run_ms * 1e3 / JOBS as f64);
        m.insert(
            "sim.supersteps",
            supersteps(&report).iter().sum::<usize>() as f64,
        );

        let big = scheduler(&self.tree, &gen::job_graph(4 * JOBS, self.seed))
            .expect("4000-job graph parses");
        let (res, t) = timed(|| tr.span("sched.run_4k", 0, || big.run(&SIM)));
        assert!(
            res.expect("4000-job graph drains").clean(),
            "4000-job drain is clean"
        );
        m.insert("sched.us_per_job_4k", util::us(t) / (4 * JOBS) as f64);

        let payload = Rng(self.seed).words(32);
        codec_rates(tr, &payload, m);
    }
}

/// Supersteps each batch of `report` executed, in batch order.
fn supersteps(report: &SchedReport) -> Vec<usize> {
    let batch_ids: Vec<usize> = report
        .causal
        .iter()
        .filter(|c| c.kind == CausalKind::Batch)
        .map(|c| c.id)
        .collect();
    let mut per = vec![0usize; batch_ids.len()];
    for c in report
        .causal
        .iter()
        .filter(|c| c.kind == CausalKind::Superstep)
    {
        if let Some(b) = c.parent.and_then(|p| batch_ids.binary_search(&p).ok()) {
            per[b] += 1;
        }
    }
    per
}

/// The scheduler's internal calls, in the order `Scheduler::run`
/// makes them.
const CHILDREN: [&str; 7] = [
    "core.carve",
    "collectives.best_plan",
    "collectives.predict",
    "check.verify_dag",
    "check.verify_claims",
    "obs.recorder_read",
    "sim.run",
];

/// One replay pass: per child, the wall time of each call in µs; and
/// the engine counts of the jobs run alone.
#[derive(Default)]
struct Pass {
    calls: BTreeMap<&'static str, Vec<f64>>,
    messages: u64,
    words: [u64; 3],
}

impl Pass {
    /// Time `f` as a replayed call of `name` under span `parent`.
    fn call<R>(
        &mut self,
        tr: &Tracer,
        parent: usize,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let (r, t) = timed(|| tr.span_under(parent, name, op, f));
        self.calls.entry(name).or_default().push(util::us(t));
        r
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e3)
    }
}

/// The scheduler's internal calls for one drain, rebuilt from its report.
struct Replay<'a> {
    tree: &'a Arc<MachineTree>,
    jobs: &'a [Job],
    report: &'a SchedReport,
}

impl Replay<'_> {
    /// Replay one drain's calls as children of span `parent`.
    fn pass(&self, tr: &Tracer, parent: usize) -> Pass {
        let tree = self.tree;
        let collective = |j: &Job| match j.work {
            JobWork::Collective { kind, n } => Some((kind, n)),
            JobWork::Custom { .. } => None,
        };
        let mut p = Pass::default();

        // Graph validation, once per drain.
        let edges: Vec<(usize, usize)> = self
            .jobs
            .iter()
            .enumerate()
            .flat_map(|(i, j)| j.blocked_by.iter().map(move |d| (i, d.0)))
            .collect();
        let v = p.call(tr, parent, "check.verify_dag", 0, || {
            hbsp::check::verify_dag(self.jobs.len(), &edges)
        });
        assert!(v.is_empty(), "generated graph is a DAG");

        // Pricing: one carve + best_plan per (collective, size, node)
        // the price cache can hold, i.e. every adequate sub-tree.
        let shapes: BTreeSet<(usize, u64)> = self
            .jobs
            .iter()
            .filter_map(collective)
            .map(|(k, n)| {
                (
                    CollectiveKind::ALL
                        .iter()
                        .position(|c| *c == k)
                        .expect("known kind"),
                    n,
                )
            })
            .collect();
        let min_procs = self.jobs.iter().map(|j| j.min_procs).min().unwrap_or(2);
        let nodes: Vec<_> = tree
            .nodes()
            .map(|n| n.idx())
            .filter(|&idx| tree.subtree_leaves(idx).len() >= min_procs)
            .collect();
        for &(k, n) in &shapes {
            for &idx in &nodes {
                let carved = p.call(tr, parent, "core.carve", 0, || tree.carve(idx));
                let _ = p.call(tr, parent, "collectives.best_plan", 0, || {
                    best_plan(&carved.tree, CollectiveKind::ALL[k], n)
                });
            }
        }

        // Per job: lowering (carve + best_plan), predict, and the job
        // alone on the simulator.
        let mut rng = Rng(1);
        for (job, jr) in self.jobs.iter().zip(&self.report.jobs) {
            let Some((kind, n)) = collective(job) else {
                continue;
            };
            let id = jr.id.0 as u64;
            let carved = p.call(tr, parent, "core.carve", id, || tree.carve(jr.node));
            let plan = p
                .call(tr, parent, "collectives.best_plan", id, || {
                    best_plan(&carved.tree, kind, n)
                })
                .expect("a placed job has a plan");
            p.call(tr, parent, "collectives.predict", id, || {
                predict(&carved.tree, &plan.schedule)
            });
            let (init, op) = inits(&carved.tree, kind, n, &plan, &mut rng);
            let prog = ScheduleProgram::new(Arc::new(plan.schedule.clone()), Arc::new(init), op);
            let sim = Simulator::new(Arc::new(carved.tree.clone()));
            let (out, _) = p
                .call(tr, parent, "sim.run", id, || sim.run_with_states(&prog))
                .expect("a placed job runs alone");
            p.messages += out.messages_delivered;
            for (l, w) in p.words.iter_mut().enumerate() {
                *w += out.words_at_level(l as u32 + 1);
            }
        }

        // Per batch: the leaf-disjointness check on the batch's claims,
        // and the recorder read at the history length the drain had
        // reached after that batch.
        let rec = Arc::new(Recorder::new());
        let session = Executor::simulator(tree.clone())
            .probe(rec.clone())
            .session();
        for (b, steps) in self.report.batches.iter().zip(supersteps(self.report)) {
            let claims: Vec<(usize, _)> = b
                .jobs
                .iter()
                .map(|j| (j.0, self.report.jobs[j.0].node))
                .collect();
            let v = p.call(tr, parent, "check.verify_claims", b.index as u64, || {
                hbsp::check::verify_claims(tree, &claims)
            });
            assert!(v.is_empty(), "report claims are leaf-disjoint");
            if steps > 0 {
                session
                    .submit(&Empty { steps: steps - 1 })
                    .expect("filler runs");
            }
            p.call(tr, parent, "obs.recorder_read", b.index as u64, || {
                std::hint::black_box((rec.steps(), rec.events()));
            });
        }
        p
    }

    /// Three replay passes, the first under `parent` (the last traced
    /// drain) and the others under spans of their own. Records the
    /// layer metrics from the median pass of each child and returns
    /// the children's median total in ms.
    fn run(&self, tr: &Tracer, parent: usize, m: &mut BTreeMap<&'static str, f64>) -> f64 {
        let mut passes = vec![self.pass(tr, parent)];
        for k in 1..3 {
            let root = tr.span("sched.replay", k, || tr.last().expect("span just opened"));
            passes.push(self.pass(tr, root));
        }
        let med_total =
            |name: &str| median(&passes.iter().map(|p| p.total_ms(name)).collect::<Vec<_>>());
        let calls = |name: &str| passes[0].calls.get(name).map_or(0, Vec::len) as f64;
        let per_call_us = |name: &str| med_total(name) * 1e3 / calls(name).max(1.0);
        m.insert("core.carve_us", per_call_us("core.carve"));
        m.insert("core.carve_calls", calls("core.carve"));
        m.insert(
            "collectives.best_plan_us",
            per_call_us("collectives.best_plan"),
        );
        m.insert(
            "collectives.best_plan_calls",
            calls("collectives.best_plan"),
        );
        m.insert("collectives.predict_us", per_call_us("collectives.predict"));
        m.insert("sim.run_us", per_call_us("sim.run"));
        m.insert("check.verify_dag_ms", med_total("check.verify_dag"));
        m.insert("check.verify_claims_us", per_call_us("check.verify_claims"));
        let last_read = |p: &Pass| {
            p.calls
                .get("obs.recorder_read")
                .and_then(|v| v.last().copied())
                .unwrap_or(0.0)
        };
        m.insert(
            "obs.recorder_read_us",
            median(&passes.iter().map(last_read).collect::<Vec<_>>()),
        );
        m.insert("ops.messages", passes[0].messages as f64);
        for (name, w) in ["ops.words_l1", "ops.words_l2", "ops.words_l3"]
            .into_iter()
            .zip(passes[0].words)
        {
            m.insert(name, w as f64);
        }
        CHILDREN.iter().map(|n| med_total(n)).sum()
    }
}
