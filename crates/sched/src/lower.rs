//! Placing a job on a carved sub-tree, and lowering an admitted job
//! from its placement.
//!
//! [`place`] plans a job on a carved sub-tree: the cheapest `best_plan`
//! for a collective, the job's own schedule for custom work. The
//! scheduler carves each node once per belief and caches the resulting
//! [`Placement`] behind an `Arc`, so each (shape, node) is planned once,
//! and every job of that shape is lowered from the same entry by
//! [`write_inputs`], which only generates the job's input data.
//!
//! Data is produced by a splitmix-style generator seeded from the job's
//! seed and id, so a job graph replays bit-identically on either engine
//! and across serial/batched admission.

use crate::job::{Job, JobWork};
use hbsp_collectives::predict;
use hbsp_collectives::schedule::{share_inits, ProcInit};
use hbsp_collectives::tune::{best_plan, PlanChoice};
use hbsp_collectives::{CollectiveKind, CommSchedule, UnitId};
use hbsp_core::{Carved, NodeIdx, ProcId};
use std::sync::Arc;

/// What a job runs on its carved machine, in carved-local ranks.
pub(crate) enum Plan {
    /// The cheapest tuned plan of a collective job.
    Collective(PlanChoice),
    /// A custom job's own schedule.
    Custom(Arc<CommSchedule>),
}

/// A job shape placed on one node of the shared tree: the carved,
/// renormalized machine, the plan for it, and the plan's price.
pub(crate) struct Placement {
    /// The carved machine, shared by every shape placed at the node;
    /// `carved.leaves` maps back to the shared tree.
    pub carved: Arc<Carved>,
    /// The plan the job runs there.
    pub plan: Plan,
    /// Predicted cost of the plan on the carved machine alone.
    pub cost: f64,
}

impl Placement {
    /// The planned schedule, in carved-local ranks.
    pub fn schedule(&self) -> &CommSchedule {
        match &self.plan {
            Plan::Collective(plan) => &plan.schedule,
            Plan::Custom(schedule) => schedule,
        }
    }

    /// Carved-local root/result rank, for rooted collectives.
    pub fn root(&self) -> Option<ProcId> {
        match &self.plan {
            Plan::Collective(plan) => plan.root,
            Plan::Custom(_) => None,
        }
    }
}

/// One job admitted to a batch on the sub-tree it claimed.
pub(crate) struct LoweredJob {
    /// Index of the job in the scheduler's submission order.
    pub job: usize,
    /// The claimed node of the shared tree.
    pub node: NodeIdx,
    /// The cached placement of the job's shape at `node`.
    pub placement: Arc<Placement>,
}

/// Plan `job` on `carved`, or `None` if the carved machine cannot host
/// it (no plan, or a custom schedule's scopes exceed the carved height).
pub(crate) fn place(carved: Arc<Carved>, job: &Job) -> Option<Placement> {
    match &job.work {
        JobWork::Collective { kind, n } => {
            let plan = best_plan(&carved.tree, *kind, *n).ok()?;
            Some(Placement {
                carved,
                cost: plan.cost,
                plan: Plan::Collective(plan),
            })
        }
        JobWork::Custom { schedule, .. } => {
            let max_scope = schedule
                .steps
                .iter()
                .filter_map(|s| s.scope.map(|sc| sc.level()))
                .max()
                .unwrap_or(0);
            if carved.tree.height() < max_scope {
                return None;
            }
            let cost = predict(&carved.tree, schedule).total();
            Some(Placement {
                carved,
                cost,
                plan: Plan::Custom(schedule.clone()),
            })
        }
    }
}

/// Mix the job id into the user seed so default-seeded jobs still get
/// distinct data (splitmix64 finalizer).
pub(crate) fn job_seed(seed: u64, id: usize) -> u64 {
    let mut z = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` deterministic words from `seed`.
pub(crate) fn words(seed: u64, len: usize) -> Vec<u32> {
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

/// Write the initial holdings of `job` (submission index `id`), placed
/// at `placement`, into the batch's per-rank `init` on the shared tree.
/// Only the claimed leaves are written, so leaf-disjoint claims never
/// touch each other's holdings.
pub(crate) fn write_inputs(job: &Job, id: usize, placement: &Placement, init: &mut [ProcInit]) {
    let leaves = &placement.carved.leaves;
    let (kind, n) = match &job.work {
        JobWork::Collective { kind, n } => (*kind, *n),
        JobWork::Custom { init: own, .. } => {
            for (rank, pi) in own.iter().enumerate() {
                init[leaves[rank].rank()] = pi.clone();
            }
            return;
        }
    };
    let Plan::Collective(plan) = &placement.plan else {
        unreachable!("collective jobs are placed with a tuned plan")
    };
    let seed = job_seed(job.seed, id);
    let p = leaves.len();
    let n_items = n as usize;
    match kind {
        CollectiveKind::Gather | CollectiveKind::Allgather => {
            let shares = share_inits(&placement.carved.tree, &words(seed, n_items), plan.workload);
            for (rank, pi) in shares.into_iter().enumerate() {
                init[leaves[rank].rank()] = pi;
            }
        }
        CollectiveKind::Broadcast | CollectiveKind::Scatter => {
            let root = plan.root.expect("rooted collective resolves a root");
            init[leaves[root.rank()].rank()]
                .units
                .push((UnitId::new(0, n as u32), words(seed, n_items)));
        }
        CollectiveKind::Alltoall => {
            for src in 0..p {
                let pi = &mut init[leaves[src].rank()];
                for dst in 0..p {
                    if src == dst {
                        continue;
                    }
                    pi.units.push((
                        UnitId::new((src * p + dst) as u32, n as u32),
                        words(seed ^ ((src * p + dst) as u64), n_items),
                    ));
                }
            }
        }
        CollectiveKind::Reduce | CollectiveKind::Scan => {
            for (rank, leaf) in leaves.iter().enumerate() {
                init[leaf.rank()].acc = Some(words(seed ^ rank as u64, n_items));
            }
        }
    }
}
