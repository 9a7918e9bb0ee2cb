//! Differential oracle for every persisted encoding: the streaming
//! encoder (`icm_json::to_string`, through `ToJson::write_json`) must
//! write exactly the bytes of the tree encoder
//! (`to_json().to_text()`) for world savestates, daemon checkpoints,
//! reply lines, intake records, model stores, the telemetry artifact
//! and trace events.

use icm::core::model::ModelBuilder;
use icm::core::ModelStore;
use icm::experiments::endurance;
use icm::experiments::ExpConfig;
use icm::workloads::{Catalog, TestbedBuilder};
use icm_json::{Json, ToJson};
use icm_obs::{Event, Recorder, Telemetry, TelemetryConfig, TelemetrySink, Tracer, Value};
use icm_server::frame::Frame;
use icm_server::journal::LineJournal;
use icm_server::protocol::{ErrorCode, Reply};
use icm_server::server::Server;
use icm_server::world::ServerConfig;

/// Asserts the streamed text equals the tree encoder's and returns it.
#[track_caller]
fn oracle<T: ToJson + ?Sized>(value: &T) -> String {
    let streamed = icm_json::to_string(value);
    let tree = value.to_json().to_text();
    assert_eq!(
        streamed, tree,
        "streamed text diverged from the tree encoder"
    );
    streamed
}

fn fast_cfg() -> ExpConfig {
    ExpConfig {
        seed: 2016,
        fast: true,
    }
}

fn fast_server_config() -> ServerConfig {
    let mut config = ServerConfig::new(2016, true);
    config.sync = false;
    config
}

fn scratch(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("icm-json-oracle-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn world_snapshots_match_at_every_endurance_tick() {
    let tracer = Tracer::disabled();
    let mut world = endurance::World::new(&fast_cfg(), &tracer).expect("world builds");
    let mut ticks = 0;
    loop {
        let snapshot = world.snapshot(&tracer, Some("trace \"dir\"\\run.jsonl"), 1234);
        let text = oracle(&snapshot);
        assert_eq!(text, snapshot.to_text());
        ticks += 1;
        if world.run.is_done(&world.config) {
            break;
        }
        world.step(&tracer).expect("steps");
    }
    assert_eq!(ticks, 9, "tick 0 plus the 8-tick fast horizon");
}

/// The request mix the daemon oracle serves: every request kind, a
/// malformed line, and damaged frames.
fn daemon_frames() -> Vec<Frame> {
    let lines = [
        r#"{"id":"w1","kind":"predict","app":"M.milc","corunners":["H.KM"],"at_ms":100,"deadline_ms":500}"#,
        r#"{"id":"o1","kind":"observe","app":"M.milc","corunners":["H.KM"],"normalized":1.4,"at_ms":140,"deadline_ms":500}"#,
        "this is not a request \"quoted\" \\ tab\t",
        r#"{"id":"a1","kind":"place","iterations":200,"at_ms":200,"deadline_ms":500}"#,
        r#"{"id":"s1","kind":"status","at_ms":900,"deadline_ms":500}"#,
        r#"{"id":"t1","kind":"tick","at_ms":1100,"deadline_ms":120000}"#,
        r#"{"id":"late","kind":"place","iterations":5000,"at_ms":1200,"deadline_ms":1}"#,
        r#"{"id":"w2","kind":"predict","app":"H.KM","corunners":["M.milc"],"at_ms":1250,"deadline_ms":500}"#,
        r#"{"id":"s2","kind":"status","at_ms":1300,"deadline_ms":500}"#,
    ];
    let mut frames: Vec<Frame> = lines.iter().map(|l| Frame::Line((*l).to_owned())).collect();
    frames.push(Frame::InvalidUtf8);
    frames.push(Frame::Oversized(200_000));
    frames.push(Frame::Truncated);
    frames
}

/// The intake record as the tree encoder built it.
fn reference_intake(frame: &Frame) -> String {
    match frame {
        Frame::Line(line) => Json::object([
            ("frame", Json::String("line".into())),
            ("data", Json::String(line.clone())),
        ]),
        Frame::Oversized(bytes) => Json::object([
            ("frame", Json::String("oversized".into())),
            ("bytes", Json::Number(*bytes as f64)),
        ]),
        Frame::InvalidUtf8 => Json::object([("frame", Json::String("bad_utf8".into()))]),
        Frame::Truncated => Json::object([("frame", Json::String("truncated".into()))]),
        Frame::Eof => Json::object([("frame", Json::String("eof".into()))]),
    }
    .to_text()
}

#[test]
fn server_snapshots_and_intake_records_match() {
    let dir = scratch("daemon");
    let frames = daemon_frames();
    let mut server = Server::start(fast_server_config(), Some(&dir)).expect("starts");
    for frame in &frames {
        server.handle_frame(frame).expect("frame handled");
    }
    server.finish().expect("drains");
    let snapshot = server.snapshot();
    assert!(
        !snapshot.cache.is_empty(),
        "the mix must populate the cache"
    );
    oracle(&snapshot);
    drop(server);

    let (_, intake) = LineJournal::open(&dir.join("intake.log"), false).expect("intake opens");
    let records: Vec<&str> = intake.iter().map(|e| e.reply_line.as_str()).collect();
    let want: Vec<String> = frames.iter().map(reference_intake).collect();
    assert_eq!(records, want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reply line as the tree encoder built it.
fn reference_reply(reply: &Reply) -> String {
    match reply {
        Reply::Ok {
            id,
            degraded,
            latency_us,
            payload,
        } => Json::object([
            ("id", Json::String(id.clone())),
            ("status", Json::String("ok".into())),
            ("degraded", Json::Bool(*degraded)),
            ("latency_us", Json::Number(*latency_us as f64)),
            ("payload", payload.clone()),
        ]),
        Reply::Error { id, code, detail } => Json::object([
            (
                "id",
                match id {
                    Some(id) => Json::String(id.clone()),
                    None => Json::Null,
                },
            ),
            ("status", Json::String("error".into())),
            ("code", Json::String(code.as_str().into())),
            ("detail", Json::String(detail.clone())),
        ]),
        Reply::DeadlineExceeded {
            id,
            budget_us,
            needed_us,
        } => Json::object([
            ("id", Json::String(id.clone())),
            ("status", Json::String("deadline_exceeded".into())),
            ("budget_us", Json::Number(*budget_us as f64)),
            ("needed_us", Json::Number(*needed_us as f64)),
        ]),
        Reply::Overloaded { id, retry_after_us } => Json::object([
            ("id", Json::String(id.clone())),
            ("status", Json::String("overloaded".into())),
            ("retry_after_us", Json::Number(*retry_after_us as f64)),
        ]),
    }
    .to_text()
}

#[test]
fn reply_lines_match_for_all_four_variants() {
    let ids = ["w1", "", "quote \" and \\ and \n", "é🦀\u{1}"];
    let payload = Json::object([
        ("app", Json::String("M.milc".into())),
        ("normalized", Json::Number(1.2345678901234567)),
        ("corunners", Json::Array(vec![Json::String("H.KM".into())])),
        ("nothing", Json::Null),
        ("huge", Json::Number(1e300)),
    ]);
    let mut replies = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let n = (i as u64) * 9_007_199_254_740_993 / 3;
        replies.push(Reply::Ok {
            id: (*id).to_owned(),
            degraded: i % 2 == 0,
            latency_us: n,
            payload: payload.clone(),
        });
        replies.push(Reply::Error {
            id: (i % 2 == 0).then(|| (*id).to_owned()),
            code: ErrorCode::MalformedJson,
            detail: format!("detail {id} at {n}"),
        });
        replies.push(Reply::DeadlineExceeded {
            id: (*id).to_owned(),
            budget_us: n,
            needed_us: u64::MAX - n,
        });
        replies.push(Reply::Overloaded {
            id: (*id).to_owned(),
            retry_after_us: n + 1,
        });
    }
    for reply in &replies {
        assert_eq!(reply.to_line(), reference_reply(reply), "{reply:?}");
    }
}

#[test]
fn model_stores_match() {
    let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(13).build();
    let store = ModelStore::from_models(["M.milc", "H.KM"].iter().map(|app| {
        ModelBuilder::new(*app)
            .policy_samples(8)
            .build(&mut tb)
            .expect("builds")
    }));
    oracle(&store);
}

#[test]
fn telemetry_artifacts_and_trace_events_match() {
    let recorder = Recorder::with_capacity(1 << 20);
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let tracer = Tracer::with_telemetry(TelemetrySink::tee(telemetry.clone(), recorder.clone()));
    endurance::run_traced(&fast_cfg(), &tracer).expect("endurance runs");
    tracer.flush();

    let text = oracle(&telemetry);
    assert_eq!(telemetry.to_text(), format!("{text}\n"));

    let events = recorder.events();
    let caused = events.iter().filter(|e| !e.causes.is_empty()).count();
    assert!(caused > 0, "the run must emit events with causes");
    assert!(caused < events.len(), "and events without causes");
    for event in &events {
        oracle(event);
    }

    // Field values the runs never produce: escapes, non-finite and
    // out-of-range numbers, extreme integers.
    let values = [
        Value::Bool(false),
        Value::U64(u64::MAX),
        Value::I64(i64::MIN),
        Value::F64(f64::NAN),
        Value::F64(-0.0),
        Value::F64(f64::NEG_INFINITY),
        Value::F64(1e-7),
        Value::Str("tab\tquote\"slash\\nul\u{0}\u{2028}🦀".into()),
    ];
    for causes in [vec![], vec![1, 2, u64::MAX]] {
        oracle(&Event {
            step: 7,
            sim_s: f64::INFINITY,
            name: "odd \"name\"\n".into(),
            causes,
            fields: values
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("k{i}\u{7}"), v.clone()))
                .collect(),
        });
    }
}

/// `DetectionKind`, `ActionKind` and `RngState` override `write_json`;
/// the tagged config enums take the default tree fallback.
#[test]
fn hand_written_impls_match_for_every_variant() {
    use icm::core::ProfilingAlgorithm;
    use icm::placement::AcceptRule;
    use icm::simcluster::{MasterBehavior, SyncPattern};
    use icm_manager::snapshot::RngState;
    use icm_manager::{ActionKind, DetectionKind};

    for rule in [
        AcceptRule::Greedy,
        AcceptRule::Metropolis {
            initial_temperature: 12.5,
            cooling: 0.995,
        },
    ] {
        oracle(&rule);
    }
    for master in [
        MasterBehavior::Participates,
        MasterBehavior::Coordinator { demand_frac: 0.1 },
    ] {
        oracle(&master);
    }
    for pattern in [
        SyncPattern::Collective {
            phases: 40,
            coupling: f64::NAN,
        },
        SyncPattern::TaskQueue {
            tasks: 64,
            stages: 3,
        },
    ] {
        oracle(&pattern);
    }
    for algorithm in [
        ProfilingAlgorithm::BinaryBrute,
        ProfilingAlgorithm::BinaryOptimized,
        ProfilingAlgorithm::RandomFraction(0.3),
        ProfilingAlgorithm::Full,
    ] {
        oracle(&algorithm);
    }
    for kind in [
        DetectionKind::HostDown,
        DetectionKind::Straggler,
        DetectionKind::SloViolation,
        DetectionKind::Drift,
    ] {
        oracle(&kind);
    }
    for kind in [
        ActionKind::Migrate,
        ActionKind::ReAnneal,
        ActionKind::Shed,
        ActionKind::CircuitBreak,
    ] {
        oracle(&kind);
    }
    oracle(&RngState([0, 1, u64::MAX, 1 << 53]));
}
