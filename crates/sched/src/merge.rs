//! Merging a batch of lowered jobs into one shared-tree schedule.
//!
//! Each lowered job's schedule is expressed in its carved machine's
//! local ranks; merging remaps every work charge and transfer through
//! `Carved::leaves` onto the shared tree and zips the jobs' supersteps
//! together, so the whole batch runs under **one barrier per step**
//! instead of one barrier sequence per tenant. The batch's initial
//! holdings are written straight onto the shared tree when each job is
//! admitted (`lower::write_inputs`), so merging only builds the
//! schedule.
//!
//! Correctness of the shared barrier: merged step `s` closes at
//! `Level(max level of any active job's claimed node)`. A claim at
//! level `ℓ` is itself a level-`ℓ` cluster, every transfer of that job
//! stays inside it, and any node of the sub-tree sits at level `≤ ℓ` —
//! so each transfer's crossing level is contained by the merged scope,
//! and the engines' scope check accepts the merged program wherever it
//! accepted the tenants individually. Unit-id spaces may collide across
//! jobs, but stores are per-processor and concurrent claims are
//! leaf-disjoint, so no processor ever sees two tenants' units.

use crate::lower::LoweredJob;
use hbsp_collectives::{CommSchedule, ScheduleStep, Transfer};
use hbsp_core::{MachineTree, SyncScope};

/// Zip the batch members' schedules into one schedule on `tree`.
pub(crate) fn merge(tree: &MachineTree, lowered: &[LoweredJob]) -> CommSchedule {
    // Every schedule ends with its drain; the merged body is as long as
    // the longest member body, followed by one shared drain.
    let body_of = |l: &LoweredJob| l.placement.schedule().num_steps().saturating_sub(1);
    let body = lowered.iter().map(body_of).max().unwrap_or(0);
    let mut schedule = CommSchedule::new();
    for s in 0..body {
        let scope = lowered
            .iter()
            .filter(|l| s < body_of(l))
            .map(|l| tree.node(l.node).level())
            .max()
            .expect("some member is active at every body step");
        let mut step = ScheduleStep::at(SyncScope::Level(scope));
        for l in lowered {
            if s >= body_of(l) {
                continue;
            }
            let leaves = &l.placement.carved.leaves;
            let src = &l.placement.schedule().steps[s];
            for &(pid, units) in &src.work {
                step.work.push((leaves[pid.rank()], units));
            }
            for t in &src.transfers {
                step.transfers.push(Transfer {
                    src: leaves[t.src.rank()],
                    dst: leaves[t.dst.rank()],
                    words: t.words,
                    role: t.role.clone(),
                });
            }
        }
        schedule.push(step);
    }
    let mut drain = ScheduleStep::drain();
    for l in lowered {
        if let Some(last) = l.placement.schedule().steps.last() {
            let leaves = &l.placement.carved.leaves;
            for &(pid, units) in &last.work {
                drain.work.push((leaves[pid.rank()], units));
            }
        }
    }
    schedule.push(drain);
    schedule
}
