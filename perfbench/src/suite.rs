//! `paper-suite`, traced: every experiment id run in process through
//! `Experiment::run_full`, one span per id.
//!
//! The untraced `paper-suite` numbers come from the `icm-experiments`
//! binary (see `run.py`); this in-process pass exists to attribute the
//! suite's wall time to studies. It runs the suite the binary runs: the
//! default configuration (seed 2016, full mode), whatever the benchmark
//! seed, and `run.py` checks that its results document is byte for byte
//! the binary's. Passes alternate untraced and traced so the tracing
//! overhead is measured in the same run.

use std::path::Path;
use std::time::Instant;

use icm_experiments::results::ResultsDoc;
use icm_experiments::{ExpConfig, Experiment};
use icm_json::Json;

use crate::spans::Spans;
use crate::{nums, Budget};

pub fn run(budget: &Budget, work: &Path) -> Result<Json, String> {
    let cfg = ExpConfig::default();
    // Span names are `&'static str`; the 32 ids' names live for the run.
    let names: Vec<&'static str> = Experiment::ALL
        .iter()
        .map(|e| &*Box::leak(format!("experiments.{}", e.id()).into_boxed_str()))
        .collect();
    let mut traced = Spans::new(true);
    let mut untraced = Spans::new(false);
    let mut passes = Vec::new();
    let mut first_text: Option<String> = None;
    let mut index = 0u64;
    while index < 2 || budget.has_room_for_another(index) {
        let spans = if index % 2 == 1 {
            &mut traced
        } else {
            &mut untraced
        };
        let start = Instant::now();
        let mut doc = ResultsDoc::new(cfg.seed, cfg.fast);
        let mut id_ns = Vec::new();
        for (exp, &name) in Experiment::ALL.iter().zip(&names) {
            let begin = Instant::now();
            let (_, data) = spans
                .time(name, index, |_| exp.run_full(&cfg))
                .map_err(|e| format!("{}: {e}", exp.id()))?;
            id_ns.push(begin.elapsed().as_nanos() as f64);
            doc.push(exp.id(), data);
        }
        let wall_ns = start.elapsed().as_nanos() as f64;
        let text = doc.to_text();
        let identical = match &first_text {
            None => {
                std::fs::write(work.join("results-inprocess.json"), &text)
                    .map_err(|e| e.to_string())?;
                first_text = Some(text);
                true
            }
            Some(first) => *first == text,
        };
        passes.push(Json::object([
            ("traced", Json::Bool(index % 2 == 1)),
            ("wall_ns", Json::Number(wall_ns)),
            ("id_ns", nums(&id_ns)),
            ("identical", Json::Bool(identical)),
        ]));
        index += 1;
    }
    traced
        .write(&work.join("spans.tsv"))
        .map_err(|e| e.to_string())?;
    let ids = Experiment::ALL
        .iter()
        .map(|e| Json::String(e.id().to_owned()))
        .collect();
    Ok(Json::object([
        ("ids", Json::Array(ids)),
        ("passes", Json::Array(passes)),
    ]))
}
