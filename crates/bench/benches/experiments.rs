//! End-to-end benchmarks: the wall-clock cost of regenerating each class
//! of paper artifact (in fast mode, so the full suite stays minutes, not
//! hours).
//!
//! `e2e/suite_fast` renders all 32 ids the way `icm-experiments all
//! --fast` does, running each study once for all its views;
//! `e2e/suite_fast/per_id` renders them with one `Experiment::run_full`
//! per id, which runs a study again for every view of it.

use icm_bench::Bench;
use icm_experiments::{run_views, ExpConfig, Experiment};

fn fast_cfg() -> ExpConfig {
    ExpConfig {
        seed: 2016,
        fast: true,
    }
}

fn main() {
    let mut b = Bench::from_args();
    for exp in [
        Experiment::Fig2,
        Experiment::Table3,
        Experiment::Table4,
        Experiment::Fig10,
        Experiment::AblationMultiApp,
    ] {
        b.bench(&format!("experiments_fast/run/{}", exp.id()), || {
            exp.run(&fast_cfg()).expect("runs")
        });
    }
    b.bench("e2e/suite_fast", || {
        run_views(&Experiment::ALL, &fast_cfg()).expect("runs")
    });
    b.bench("e2e/suite_fast/per_id", || {
        Experiment::ALL.map(|exp| exp.run_full(&fast_cfg()).expect("runs"))
    });
}
