//! `fleet-endurance`: a long supervised horizon with a durable
//! savestate after every tick.
//!
//! Each round builds a world from public parts — `ModelBuilder` on the
//! 8-host private testbed with the settings of
//! `icm_experiments::context::build_models`, `Fleet::new`, and
//! `ManagedRun::start` with two search lanes — then steps it through
//! [`HORIZON`] ticks. Before each step the benchmark's own seeded driver
//! may open a crash window, and ambient drift lands mid-horizon, as the
//! `endurance` experiment's `World::step` does. After each step the
//! whole world is captured as a `WorldSnapshot`, encoded, saved as a new
//! `SnapshotStore` generation and the store pruned. Rounds cycle through
//! [`DRIVERS`] crash-driver streams of the seed, so every round must
//! repeat every count of the round [`DRIVERS`] before it.

use std::path::Path;
use std::time::Instant;

use icm_core::{DriftConfig, ModelBuilder, ModelError, OnlineModel, ProfilingAlgorithm, Testbed};
use icm_experiments::context::private_testbed;
use icm_experiments::ExpConfig;
use icm_json::fs::SnapshotStore;
use icm_json::Json;
use icm_manager::snapshot::{RngState, WorldSnapshot, WORLD_SNAPSHOT_VERSION};
use icm_manager::{ActionKind, EnvironmentDrift, Fleet, ManagedApp, ManagedRun, ManagerConfig};
use icm_obs::Tracer;
use icm_placement::QosConfig;
use icm_rng::{split_seed, Rng};
use icm_simcluster::CrashWindow;
use icm_workloads::SimTestbedAdapter;

use crate::spans::Spans;
use crate::{nums, peak_rss_mb, Budget};

/// Supervised ticks per round. Fixed, so the snapshot grows to the same
/// size in every round and on every commit.
pub const HORIZON: u64 = 300;
/// Supervised applications and their shedding priorities.
const APPS: [(&str, u32); 3] = [("M.milc", 3), ("M.Gems", 2), ("H.KM", 1)];
/// Hosts every application spans.
const SPAN: usize = 4;
/// Placement slots per host.
const SLOTS_PER_HOST: usize = 2;
/// Per-tick probability the driver opens a crash window.
const CRASH_PROB: f64 = 0.25;
/// Runs a crash window stays open for.
const CRASH_SPAN_RUNS: u64 = 2;
/// Crash-driver streams per run; the figures of a run cover all of them.
pub const DRIVERS: u64 = 12;
/// Snapshot generations kept after each prune.
const KEEP_GENERATIONS: usize = 4;

/// Counts, and in a traced run times, the profiling probes
/// `ModelBuilder` sends to the testbed adapter.
struct TimedTestbed<'a> {
    inner: &'a mut SimTestbedAdapter,
    spans: &'a mut Spans,
    req: u64,
    probes: u64,
}

impl Testbed for TimedTestbed<'_> {
    fn cluster_hosts(&self) -> usize {
        self.inner.cluster_hosts()
    }

    fn max_pressure(&self) -> usize {
        self.inner.max_pressure()
    }

    fn run_app(&mut self, app: &str, pressures: &[f64]) -> Result<f64, ModelError> {
        self.probes += 1;
        let inner = &mut *self.inner;
        self.spans.time("simcluster.run_app", self.req, |_| {
            inner.run_app(app, pressures)
        })
    }

    fn reporter_slowdown_with_app(&mut self, app: &str) -> Result<f64, ModelError> {
        self.probes += 1;
        let inner = &mut *self.inner;
        self.spans.time("simcluster.reporter", self.req, |_| {
            inner.reporter_slowdown_with_app(app)
        })
    }

    fn reporter_slowdown_with_bubble(&mut self, pressure: f64) -> Result<f64, ModelError> {
        self.probes += 1;
        let inner = &mut *self.inner;
        self.spans.time("simcluster.reporter", self.req, |_| {
            inner.reporter_slowdown_with_bubble(pressure)
        })
    }
}

fn manager_config(seed: u64, hosts: usize) -> ManagerConfig {
    let mut pressures = vec![0.0; hosts];
    for p in pressures.iter_mut().take(hosts / 2) {
        *p = 6.0;
    }
    ManagerConfig {
        ticks: HORIZON,
        seed,
        migration_cost_s: 30.0,
        initial_iterations: 1500,
        reanneal_iterations: 400,
        drift: DriftConfig {
            threshold: 0.2,
            trip_after: 2,
        },
        slo_trip_after: 2,
        qos: QosConfig {
            qos_fraction: 0.6,
            ..QosConfig::default()
        },
        search_lanes: 2,
        environment: Some(EnvironmentDrift {
            from_tick: HORIZON / 2 + 1,
            pressures,
        }),
    }
}

/// One round: set-up, the horizon, and the end-of-round checks. The
/// world is the one the `endurance` experiment builds at its default
/// seed; `driver_seed` draws its crash windows.
fn round(
    driver_seed: u64,
    index: u64,
    store_dir: &Path,
    spans: &mut Spans,
) -> Result<Json, String> {
    let cfg = ExpConfig::default();
    let req_base = index * (HORIZON + 1);
    let round_start = Instant::now();

    // Set-up: profile the fleet's models, pack the fleet, cold anneal.
    let mut adapter = private_testbed(&cfg);
    let hosts = adapter.sim().cluster().hosts();
    let mut probes = 0;
    let mut apps = Vec::new();
    for (name, priority) in APPS {
        let mut builder = ModelBuilder::new(name);
        builder
            .algorithm(ProfilingAlgorithm::BinaryOptimized)
            .policy_samples(cfg.policy_samples())
            .solo_repeats(cfg.repeats())
            .seed(cfg.seed.wrapping_add(0x40DE1))
            .hosts(SPAN);
        let model = spans.time("core.build_model", req_base, |spans| {
            let mut timed = TimedTestbed {
                inner: &mut adapter,
                spans,
                req: req_base,
                probes: 0,
            };
            let model = builder.build(&mut timed);
            probes += timed.probes;
            model
        });
        let model = model.map_err(|e| format!("profiling {name}: {e}"))?;
        apps.push(ManagedApp::new(name, priority, OnlineModel::new(model)));
    }
    let mut fleet = Fleet::new(hosts, SLOTS_PER_HOST, SPAN, apps).map_err(|e| e.to_string())?;
    let mut testbed = adapter.into_sim();
    let config = manager_config(cfg.seed, hosts);
    let mut run = spans
        .time("manager.start", req_base, |_| {
            ManagedRun::start(&testbed, &fleet, &config, true)
        })
        .map_err(|e| e.to_string())?;
    let setup_ns = round_start.elapsed().as_nanos() as f64;

    let _ = std::fs::remove_dir_all(store_dir);
    let store = SnapshotStore::open(store_dir).map_err(|e| e.to_string())?;
    let tracer = Tracer::disabled();
    let mut driver = Rng::from_seed(driver_seed);
    let mut tick_ns = Vec::new();
    let mut save_ns = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let mut last_text = String::new();
    let ticks_start = Instant::now();
    while !run.is_done(&config) {
        let tick = run.next_tick();
        let req = req_base + tick;
        let begin = Instant::now();
        if driver.gen_bool(CRASH_PROB) {
            let host = driver.gen_range(0..hosts as u64) as usize;
            let from_run = testbed.peek_run();
            let mut plan = testbed.fault_plan().cloned().unwrap_or_default();
            plan.crash_windows.push(CrashWindow {
                host,
                from_run,
                until_run: from_run + CRASH_SPAN_RUNS,
            });
            testbed.set_fault_plan(Some(plan));
        }
        let stepped = spans.time("manager.step", req, |_| {
            run.step(&mut testbed, &mut fleet, &config, &tracer)
        });
        if let Err(e) = stepped {
            // The gate counts the ticks the horizon did not reach.
            eprintln!("fleet-endurance: tick {tick} failed: {e}");
            break;
        }
        let snapshot = spans.time("manager.snapshot.capture", req, |_| WorldSnapshot {
            version: WORLD_SNAPSHOT_VERSION,
            testbed: testbed.snapshot(),
            config: config.clone(),
            fleet: fleet.clone(),
            run: run.clone(),
            tracer: tracer.state(),
            rngs: vec![RngState::capture(&driver)],
            trace_path: None,
            trace_bytes: 0,
        });
        let text = spans.time("manager.snapshot.encode", req, |_| snapshot.to_text());
        let saving = Instant::now();
        spans
            .time("json.store_save", req, |_| store.save(text.as_bytes()))
            .map_err(|e| format!("saving tick {tick}: {e}"))?;
        save_ns.push(saving.elapsed().as_nanos() as f64);
        spans
            .time("json.store_prune", req, |_| store.prune(KEEP_GENERATIONS))
            .map_err(|e| format!("pruning after tick {tick}: {e}"))?;
        tick_ns.push(begin.elapsed().as_nanos() as f64);
        snapshot_bytes.push(text.len() as f64);
        last_text = text;
    }
    let ticks_ns = ticks_start.elapsed().as_nanos() as f64;

    // Gates: the last savestate round-trips through the decoder, and the
    // store hands back exactly the bytes saved last.
    let reparsed = spans.time("manager.snapshot.parse", req_base + HORIZON, |_| {
        WorldSnapshot::parse(&last_text)
    });
    let round_trips = matches!(reparsed, Ok(ref s) if s.to_text() == last_text);
    let latest = spans.time("json.store_load_latest", req_base + HORIZON, |_| {
        store.load_latest()
    });
    let store_matches =
        matches!(latest, Ok(Some((_, ref bytes))) if *bytes == last_text.as_bytes());

    let outcome = run.into_outcome(&testbed, &fleet, &config);
    let mut eventful: Vec<u64> = outcome.actions.iter().map(|a| a.tick).collect();
    eventful.dedup();
    let actions = [
        ActionKind::Migrate,
        ActionKind::ReAnneal,
        ActionKind::Shed,
        ActionKind::CircuitBreak,
    ]
    .map(|kind| {
        (
            kind.as_str(),
            Json::Number(outcome.action_count(kind) as f64),
        )
    });
    let round_ns = round_start.elapsed().as_nanos() as f64;
    Ok(Json::object([
        ("traced", Json::Bool(spans.enabled())),
        ("setup_ns", Json::Number(setup_ns)),
        ("ticks_ns", Json::Number(ticks_ns)),
        ("round_ns", Json::Number(round_ns)),
        ("tick_ns", nums(&tick_ns)),
        ("save_ns", nums(&save_ns)),
        ("first_tick_req", Json::Number((req_base + 1) as f64)),
        (
            "eventful_ticks",
            nums(&eventful.iter().map(|&t| t as f64).collect::<Vec<_>>()),
        ),
        ("snapshot_bytes", nums(&snapshot_bytes)),
        ("ticks", Json::Number(tick_ns.len() as f64)),
        ("round_trips", Json::Bool(round_trips)),
        ("store_matches", Json::Bool(store_matches)),
        ("probes", Json::Number(probes as f64)),
        ("violation_s", Json::Number(outcome.violation_seconds)),
        ("sim_seconds", Json::Number(outcome.sim_seconds)),
        ("apps", Json::Number(APPS.len() as f64)),
        ("actions", Json::object(actions)),
    ]))
}

/// Runs rounds until the budget is spent, at least one pass over the
/// [`DRIVERS`] streams (two in a traced run). Round `i` draws crashes
/// from driver stream `i % DRIVERS` of the seed, so later rounds repeat
/// earlier ones exactly. In a traced run, passes over the streams
/// alternate untraced and traced, so every stream runs both ways and
/// the tracing overhead is measured per stream in the run.
pub fn run(seed: u64, budget: &Budget, work: &Path, trace: bool) -> Result<Json, String> {
    let mut traced = Spans::new(true);
    let mut untraced = Spans::new(false);
    let mut rounds = Vec::new();
    let min_rounds = if trace { 2 * DRIVERS } else { DRIVERS };
    let mut index = 0;
    while index < min_rounds || budget.has_room_for_another(index) {
        let spans = if trace && (index / DRIVERS) % 2 == 1 {
            &mut traced
        } else {
            &mut untraced
        };
        let driver_seed = split_seed(seed, index % DRIVERS);
        rounds.push(round(driver_seed, index, &work.join("fleet-store"), spans)?);
        index += 1;
    }
    if trace {
        traced
            .write(&work.join("spans.tsv"))
            .map_err(|e| e.to_string())?;
    }
    Ok(Json::object([
        ("peak_rss_mb", Json::Number(peak_rss_mb())),
        ("horizon", Json::Number(HORIZON as f64)),
        ("drivers", Json::Number(DRIVERS as f64)),
        ("rounds", Json::Array(rounds)),
    ]))
}
