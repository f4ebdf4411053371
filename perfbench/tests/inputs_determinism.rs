//! The workloads' inputs are a pure function of the seed.

use cpg::SystemEdit;
use cpg_gen::{generate, paper_suite, system_fingerprint};
use cpg_perfbench::inputs::{
    edit_sessions, fresh_configs, Workload, EXEC_TIME_STEP, FIG6_FIXED_PER_SIZE, FIG6_SYSTEMS,
};

/// Fingerprints of the first `n` seeded systems of a fresh-merge workload
/// (`fig6_suite` also holds a fixed share of the paper suite's own graphs).
fn fresh_fingerprints(workload: Workload, seed: u64, n: usize) -> Vec<u64> {
    let fixed = paper_suite(FIG6_SYSTEMS / 3);
    fresh_configs(workload, seed)
        .iter()
        .filter(|config| !fixed.contains(config))
        .take(n)
        .map(|config| system_fingerprint(&generate(config)))
        .collect()
}

#[test]
fn fresh_inputs_repeat_for_a_seed_and_change_with_it() {
    for workload in [Workload::Fig6Suite, Workload::DeepNest] {
        let a = fresh_fingerprints(workload, 3, 24);
        assert_eq!(a, fresh_fingerprints(workload, 3, 24), "{workload:?}");
        let b = fresh_fingerprints(workload, 4, 24);
        assert!(
            a.iter().all(|f| !b.contains(f)),
            "{workload:?}: seeds share systems"
        );
    }
}

#[test]
fn fig6_suite_keeps_a_fixed_share_of_the_paper_suite() {
    let suite = paper_suite(FIG6_SYSTEMS / 3);
    let per_size = FIG6_SYSTEMS / 3;
    let fixed: Vec<_> = suite
        .iter()
        .enumerate()
        .filter(|(k, _)| k % per_size < FIG6_FIXED_PER_SIZE)
        .map(|(_, config)| config)
        .collect();
    assert!(fixed
        .iter()
        .any(|c| c.nodes() == 120 && c.seed() == 0x78_0000_0002));
    assert!(fixed
        .iter()
        .any(|c| c.nodes() == 120 && c.seed() == 0x78_0000_0019));
    for seed in [3, 4] {
        let configs = fresh_configs(Workload::Fig6Suite, seed);
        assert_eq!(configs.len(), FIG6_SYSTEMS);
        let shared = configs.iter().filter(|c| suite.contains(c)).count();
        assert_eq!(shared, fixed.len(), "seed {seed}");
        assert!(fixed.iter().all(|c| configs.contains(c)), "seed {seed}");
    }
}

#[test]
fn edit_scripts_repeat_for_a_seed_and_change_with_it() {
    let summary = |seed| {
        edit_sessions(seed, |_, config| generate(config))
            .into_iter()
            .map(|s| (system_fingerprint(&s.system), s.script))
            .collect::<Vec<_>>()
    };
    let a = summary(3);
    assert_eq!(a, summary(3));
    let b = summary(4);
    assert_ne!(a, b);
    assert!(a.iter().all(|(f, _)| b.iter().all(|(g, _)| f != g)));
}

#[test]
fn edit_cycles_return_to_the_initial_system() {
    for session in edit_sessions(5, |_, config| generate(config))
        .into_iter()
        .take(20)
    {
        let mut cpg = session.system.cpg().clone();
        for edit in &session.script {
            edit.apply(&mut cpg).expect("script edits apply");
        }
        let original = session.system.cpg();
        for p in original.process_ids() {
            assert_eq!(cpg.exec_time(p), original.exec_time(p));
            assert_eq!(cpg.mapping(p), original.mapping(p));
        }
    }
}

#[test]
fn fig6_suite_covers_the_paper_suite_shapes() {
    let configs = fresh_configs(Workload::Fig6Suite, 1);
    for nodes in [60, 80, 120] {
        assert!(configs.iter().any(|c| c.nodes() == nodes));
    }
    for paths in [10, 12, 18, 24, 32] {
        assert!(configs.iter().any(|c| c.target_paths() == paths));
    }
    assert!(configs.iter().any(|c| c.processors() == 11));
    assert!(configs.iter().any(|c| c.buses() == 8));
}

#[test]
fn forward_edits_are_small_wcet_steps_or_processor_moves() {
    let mut moves = 0;
    let mut steps = 0;
    for session in edit_sessions(6, |_, config| generate(config)) {
        let mut cpg = session.system.cpg().clone();
        let processors: Vec<_> = session.system.arch().processors().collect();
        for edit in &session.script[..session.script.len() / 2] {
            match *edit {
                SystemEdit::ExecTime { process, time } => {
                    steps += 1;
                    assert_eq!(
                        time.as_u64(),
                        cpg.exec_time(process).as_u64() + EXEC_TIME_STEP
                    );
                }
                SystemEdit::Mapping { process, pe } => {
                    moves += 1;
                    assert!(processors.contains(&pe));
                    assert!(processors.contains(&cpg.mapping(process).expect("mapped")));
                }
                _ => panic!("unexpected edit {edit:?}"),
            }
            edit.apply(&mut cpg).expect("script edits apply");
        }
    }
    assert!(
        moves > 0 && steps > 3 * moves,
        "{steps} steps, {moves} moves"
    );
}
