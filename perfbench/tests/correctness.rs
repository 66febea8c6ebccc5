//! Correctness fails closed: a digest that does not match the checked-in
//! one, a missing digest, or an output that changes within a run counts
//! as a failed operation.

use dsv3_perfbench::workloads::{
    load_golden, parse_golden, render_golden, seed_key, Checker, OpOutput, WORKLOADS,
};
use dsv3_perfbench::RunResult;

#[test]
fn every_workload_has_digests_for_its_default_and_held_out_seeds() {
    for w in &WORKLOADS {
        let golden = load_golden(w).expect("golden file");
        for seed in w.seeds {
            let digests = golden.get(&seed_key(w, seed)).expect("digests for the seed");
            assert!(!digests.is_empty(), "{} seed {seed}", w.name);
        }
        assert_eq!(parse_golden(&render_golden(w, &golden)).expect("round trip"), golden);
    }
}

#[test]
fn a_corrupted_digest_counts_as_a_failed_operation() {
    let w = WORKLOADS.iter().find(|w| w.name == "registry-rest").expect("workload");
    let mut golden = load_golden(w).expect("golden file");
    let digests = golden.get_mut(&seed_key(w, 0)).expect("digests");
    let op = OpOutput {
        work: digests.len() as f64,
        digests: digests.iter().map(|(k, d)| (k.clone(), *d)).collect(),
        violations: Vec::new(),
    };

    let mut result = RunResult::default();
    result.record(&Checker::new(Some(digests.clone())).check(&op));
    assert_eq!((result.attempted, result.failed), (1, 0), "intact digests pass");

    let first = digests.values_mut().next().expect("a digest");
    *first ^= 1;
    let problems = Checker::new(Some(digests.clone())).check(&op);
    assert_eq!(problems.len(), 1, "{problems:?}");
    result.record(&problems);
    assert_eq!((result.attempted, result.failed), (2, 1));
    assert!(!result.correct());
}

#[test]
fn unknown_outputs_and_unrepeatable_outputs_fail() {
    let op =
        |d: u64| OpOutput { work: 1.0, digests: vec![("s1".into(), d)], violations: Vec::new() };
    assert_eq!(Checker::new(Some(Default::default())).check(&op(7)).len(), 1, "no golden");
    let mut invariants_only = Checker::new(None);
    assert!(invariants_only.check(&op(7)).is_empty());
    assert!(invariants_only.check(&op(7)).is_empty(), "same output again");
    assert_eq!(invariants_only.check(&op(8)).len(), 1, "output changed within the run");
    let broken = OpOutput { violations: vec!["bandwidth".into()], ..op(9) };
    assert_eq!(Checker::new(None).check(&broken), vec![String::from("bandwidth")]);
}
