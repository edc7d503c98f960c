//! Cross-engine execution of the collectives themselves: the lowered
//! schedule of the paper's algorithms (level-scoped syncs, coordinator
//! roles) runs on the threaded runtime and produces exactly the
//! simulator's times and final states.

mod common;

use common::{arb_items, arb_machine};
use hbsp::collectives::broadcast::{broadcast_program, BroadcastPlan};
use hbsp::collectives::data::reassemble;
use hbsp::collectives::gather::{gather_program, GatherPlan};
use hbsp::collectives::plan::{PhasePolicy, RootPolicy, WorkloadPolicy};
use hbsp::collectives::schedule::{ScheduleProgram, ScheduleState, UnitId};
use hbsp::core::MachineTree;
use hbsp::runtime::ThreadedRuntime;
use hbsp::sim::Simulator;
use proptest::prelude::*;
use std::sync::Arc;

/// Run one program on both engines; return the simulator's states after
/// checking that the threaded runtime reproduces its time and states.
fn run_both(tree: &Arc<MachineTree>, prog: &ScheduleProgram) -> Vec<ScheduleState> {
    let (sim, sim_states) = Simulator::new(Arc::clone(tree))
        .run_with_states(prog)
        .unwrap();
    let (thr, thr_states) = ThreadedRuntime::new(Arc::clone(tree))
        .run_with_states(prog)
        .unwrap();
    assert_eq!(sim.total_time, thr.virtual_outcome.total_time);
    assert_eq!(sim_states, thr_states);
    sim_states
}

/// A broadcast of `items` under `plan`, checked on both engines: every
/// processor ends with the full array.
fn broadcast_on_both(tree: MachineTree, items: &[u32], plan: BroadcastPlan) {
    let tree = Arc::new(tree);
    let (prog, _) = broadcast_program(&tree, items, &plan).expect("plan lowers");
    for st in run_both(&tree, &prog) {
        assert_eq!(st.unit(UnitId::new(0, items.len() as u32)), items);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hierarchical_gather_runs_on_threads((tree, items) in (arb_machine(), arb_items())) {
        let tree = Arc::new(tree);
        let plan = GatherPlan::hierarchical().with_workload(WorkloadPolicy::Balanced);
        let (prog, root) = gather_program(&tree, &items, plan).expect("plan lowers");
        let states = run_both(&tree, &prog);
        prop_assert_eq!(root, tree.fastest_proc());
        prop_assert_eq!(reassemble(&states[root.rank()].pieces()), items);
    }

    #[test]
    fn broadcast_runs_on_threads((tree, items) in (arb_machine(), arb_items())) {
        broadcast_on_both(tree, &items, BroadcastPlan::hierarchical(PhasePolicy::TwoPhase));
    }

    #[test]
    fn flat_broadcast_runs_on_threads((tree, items) in (arb_machine(), arb_items())) {
        let plan = BroadcastPlan::two_phase().with_root(RootPolicy::Slowest);
        broadcast_on_both(tree, &items, plan);
    }
}
