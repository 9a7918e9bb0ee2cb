//! Reproducibility guarantees: everything is a pure function of the
//! seed.

use icm::core::model::ModelBuilder;
use icm::core::Testbed;
use icm::experiments::results::ResultsDoc;
use icm::experiments::{run_views, study_runs, ExpConfig, Experiment};
use icm::json::{Json, ToJson};
use icm::workloads::{Catalog, TestbedBuilder};
use icm_obs::Tracer;

#[test]
fn identical_seeds_give_identical_measurement_histories() {
    let catalog = Catalog::paper();
    let mut a = TestbedBuilder::new(&catalog).seed(99).build();
    let mut b = TestbedBuilder::new(&catalog).seed(99).build();
    for app in ["M.milc", "H.KM", "C.libq"] {
        for _ in 0..3 {
            assert_eq!(
                a.run_app(app, &[2.0; 8]).expect("runs"),
                b.run_app(app, &[2.0; 8]).expect("runs"),
                "{app} diverged"
            );
        }
    }
}

#[test]
fn different_seeds_give_different_noise() {
    let catalog = Catalog::paper();
    let mut a = TestbedBuilder::new(&catalog).seed(1).build();
    let mut b = TestbedBuilder::new(&catalog).seed(2).build();
    let ta = a.run_app("M.milc", &[2.0; 8]).expect("runs");
    let tb = b.run_app("M.milc", &[2.0; 8]).expect("runs");
    assert_ne!(ta, tb);
    // But only by noise, not by behaviour.
    assert!((ta - tb).abs() / ta < 0.1);
}

#[test]
fn model_building_is_reproducible() {
    let build = || {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(4).build();
        ModelBuilder::new("M.zeus")
            .policy_samples(8)
            .seed(6)
            .build(&mut tb)
            .expect("builds")
    };
    let m1 = build();
    let m2 = build();
    assert_eq!(m1.bubble_score(), m2.bubble_score());
    assert_eq!(m1.policy(), m2.policy());
    assert_eq!(
        m1.predict(&[3.0, 1.0, 0.0, 0.0, 5.0, 0.0, 0.0, 2.0]),
        m2.predict(&[3.0, 1.0, 0.0, 0.0, 5.0, 0.0, 0.0, 2.0])
    );
}

#[test]
fn profiler_json_is_byte_identical_across_runs() {
    // The whole point of the vendored RNG: two fresh processes-worth of
    // state, same seeds, must persist *byte-identical* artifacts — not
    // just behaviourally equivalent ones.
    let profile = || {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(17).build();
        let model = ModelBuilder::new("C.libq")
            .policy_samples(8)
            .seed(19)
            .build(&mut tb)
            .expect("builds");
        icm::json::to_string_pretty(&model)
    };
    assert_eq!(profile(), profile(), "profiler JSON must not drift");
}

#[test]
fn placement_json_is_byte_identical_across_runs() {
    use icm::placement::{
        anneal, AnnealConfig, Estimator, FnObjective, PlacementProblem, RuntimePredictor,
    };
    let search = || {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(23).build();
        let apps = ["M.milc", "C.libq", "H.KM", "N.cg"];
        let models: Vec<_> = apps
            .iter()
            .map(|app| {
                ModelBuilder::new(*app)
                    .hosts(4)
                    .policy_samples(6)
                    .build(&mut tb)
                    .expect("builds")
            })
            .collect();
        let problem =
            PlacementProblem::paper_default(apps.iter().map(|a| (*a).to_owned()).collect())
                .expect("valid");
        let refs: Vec<&dyn RuntimePredictor> =
            models.iter().map(|m| m as &dyn RuntimePredictor).collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let result = anneal(
            &problem,
            |_| FnObjective::new(|s| Ok(estimator.estimate(s)?.weighted_total), |_| Ok(0.0)),
            None,
            &AnnealConfig {
                iterations: 400,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("search runs");
        icm::json::to_string_pretty(&result)
    };
    assert_eq!(search(), search(), "placement JSON must not drift");
}

#[test]
fn experiment_outputs_are_reproducible() {
    let cfg = ExpConfig {
        seed: 12,
        fast: true,
    };
    for exp in [Experiment::Fig2, Experiment::Table4] {
        let first = exp.run(&cfg).expect("runs");
        let second = exp.run(&cfg).expect("runs");
        assert_eq!(first, second, "{} not reproducible", exp.id());
    }
}

#[test]
fn experiment_seed_changes_output() {
    let a = Experiment::Table4
        .run(&ExpConfig {
            seed: 1,
            fast: true,
        })
        .expect("runs");
    let b = Experiment::Table4
        .run(&ExpConfig {
            seed: 2,
            fast: true,
        })
        .expect("runs");
    assert_ne!(a, b, "different seeds must change measured values");
}

/// The ids that share their study with another id, in paper order.
fn multi_view_ids() -> Vec<Experiment> {
    Experiment::ALL
        .into_iter()
        .filter(|exp| {
            Experiment::ALL
                .iter()
                .filter(|other| other.lead() == exp.lead())
                .count()
                > 1
        })
        .collect()
}

/// Asserts that each `(id, text, json)` equals `Experiment::run_full(id)`
/// byte for byte, and that the results documents built from both agree.
fn assert_views_equal_per_id_runs(views: Vec<(Experiment, String, Json)>, cfg: &ExpConfig) {
    let mut shared = ResultsDoc::new(cfg.seed, cfg.fast);
    let mut per_id = ResultsDoc::new(cfg.seed, cfg.fast);
    for (exp, text, json) in views {
        let (want_text, want_json) = exp.run_full(cfg).expect("runs");
        let seed = cfg.seed;
        assert_eq!(text, want_text, "{} text diverged at seed {seed}", exp.id());
        assert_eq!(
            icm::json::to_string(&json),
            icm::json::to_string(&want_json),
            "{} JSON diverged at seed {seed}",
            exp.id()
        );
        shared.push(exp.id(), json);
        per_id.push(exp.id(), want_json);
    }
    assert_eq!(shared.to_text(), per_id.to_text());
}

/// A multi-view id's text table and JSON text, from its module's own
/// `run` and `render_*`: an oracle that bypasses `Study::view`.
fn module_view(exp: Experiment, cfg: &ExpConfig) -> (String, String) {
    use icm::experiments::{ec2, fig11, fig4, fig8, table3};
    fn pair<T: ToJson>(result: T, render: fn(&T) -> String) -> (String, String) {
        (render(&result), icm::json::to_string(&result.to_json()))
    }
    match exp {
        Experiment::Fig4 => pair(fig4::run(cfg).expect("runs"), fig4::render_fig4),
        Experiment::Table2 => pair(fig4::run(cfg).expect("runs"), fig4::render_table2),
        Experiment::Table3 => pair(table3::run(cfg).expect("runs"), table3::render_table3),
        Experiment::Fig6 => pair(table3::run(cfg).expect("runs"), table3::render_fig6),
        Experiment::Fig7 => pair(table3::run(cfg).expect("runs"), table3::render_fig7),
        Experiment::Fig8 => pair(fig8::run(cfg).expect("runs"), fig8::render_fig8),
        Experiment::Fig9 => pair(fig8::run(cfg).expect("runs"), fig8::render_fig9),
        Experiment::Fig11 => pair(fig11::run(cfg).expect("runs"), fig11::render_fig11),
        Experiment::Table5 => pair(fig11::run(cfg).expect("runs"), fig11::render_table5),
        Experiment::Fig12 => pair(ec2::run(cfg).expect("runs"), ec2::render_fig12),
        Experiment::Table6 => pair(ec2::run(cfg).expect("runs"), ec2::render_table6),
        Experiment::Fig13 => pair(ec2::run(cfg).expect("runs"), ec2::render_fig13),
        other => panic!("{} is not a multi-view id", other.id()),
    }
}

#[test]
fn shared_study_views_equal_per_id_runs() {
    let ids = multi_view_ids();
    assert_eq!(
        ids.len(),
        12,
        "fig4/table2, table3/fig6/fig7, fig8/fig9, fig11/table5, ec2"
    );
    assert_eq!(study_runs(&ids).count(), 5);
    for seed in [2016, 7] {
        let cfg = ExpConfig { seed, fast: true };
        for run in study_runs(&ids) {
            let study = run[0].run_study(&cfg, &Tracer::disabled()).expect("runs");
            for exp in Experiment::ALL {
                assert_eq!(
                    study.view(exp).is_some(),
                    run.contains(&exp),
                    "{}'s study and {} disagree on whether it is a view",
                    run[0].id(),
                    exp.id()
                );
            }
        }
        let views = run_views(&ids, &cfg).expect("runs");
        assert_eq!(views.len(), ids.len());
        for (exp, text, json) in &views {
            let (want_text, want_json) = module_view(*exp, &cfg);
            assert_eq!(*text, want_text, "{} renders another view", exp.id());
            assert_eq!(icm::json::to_string(json), want_json, "{}", exp.id());
        }
        assert_views_equal_per_id_runs(views, &cfg);
    }
}

#[test]
fn out_of_order_selection_reruns_rather_than_reusing_a_stale_study() {
    let cfg = ExpConfig {
        seed: 3,
        fast: true,
    };
    let selected = [
        Experiment::Fig13,
        Experiment::Fig2,
        Experiment::Fig12,
        Experiment::Table6,
        Experiment::Fig9,
        Experiment::Fig13,
    ];
    let views = run_views(&selected, &cfg).expect("runs");
    let order: Vec<Experiment> = views.iter().map(|(exp, _, _)| *exp).collect();
    assert_eq!(order, selected);
    assert_views_equal_per_id_runs(views, &cfg);
}
