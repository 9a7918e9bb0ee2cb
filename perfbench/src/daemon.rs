//! `daemon-mix`: an in-process `icm-server` under an open-loop request
//! generator.
//!
//! The server starts with `Server::start` and persistence armed (intake
//! log, write-ahead journal, checkpoints at the default cadence), `sync`
//! off. One thread walks a ladder of fixed rates several times. At each
//! visit to a rate it sends a seeded mix of interactive frames — reads
//! (predict with and without a co-runner, status) beside writes (observe,
//! place, tick) — on a fixed schedule, whatever the server's speed: every
//! frame has a due time, its latency is measured from that due time, and
//! the generator records how late it ran and how many frames were
//! overdue. Frames pass through `FrameReader` into
//! `Server::handle_frame`. Every visit's frame count is fixed, so the
//! journal a run commits is the same bytes on every run of one seed.

use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

use icm_experiments::ExpConfig;
use icm_json::Json;
use icm_rng::{split_seed, Rng};
use icm_server::{Frame, FrameReader, LineJournal, Request, Server, ServerConfig};

use crate::spans::Spans;
use crate::{nums, peak_rss_mb};

/// The rate ladder, requests per second, lowest first. It reaches two
/// and a half to four times the rate the daemon saturates at today
/// (12000–20000 req/s on a 2-vCPU VM, with the machine's load), so its
/// top rungs still saturate the daemon after a large gain.
const RATES: [f64; 11] = [
    2000.0, 4000.0, 8000.0, 10000.0, 12500.0, 16000.0, 20000.0, 25000.0, 32000.0, 40000.0, 50000.0,
];
/// Frames every visit sends, per second of the life. Every visit sends
/// the same number, so a rung the daemon falls behind on costs no more
/// frames, checkpoints and disk writes than one it keeps up with; at
/// today's capacity a life takes about its `seconds`.
const VISIT_FRAMES_PER_SECOND: f64 = 130.0;
/// Walks of the ladder per life. Each rate's figures pool its visits,
/// spread over the whole run while the machine's speed drifts and the
/// daemon's state grows.
const CYCLES: usize = 5;
/// Fresh `Server::start`s timed for the set-up figure.
const SETUP_STARTS: usize = 15;

/// Request kinds, in the order their codes are reported.
pub const KINDS: [&str; 5] = ["predict", "status", "observe", "place", "tick"];
/// The traffic comes in rounds. A round is the steady phase of the
/// `serve` experiment's load script: three predicts, each with a
/// co-runner on a coin flip, one observe and one status.
const ROUND: [usize; 5] = [0, 0, 0, 2, 1];
/// `serve` sends no place and no tick; the benchmark adds them on a
/// fixed cadence of its own (README.md gives the reasons). One place
/// (400 iterations) closes every tenth round.
const PLACE_EVERY: usize = 10;
/// One tick closes every twentieth round.
const TICK_EVERY: usize = 20;
const APPS: [&str; 3] = ["M.milc", "M.Gems", "H.KM"];

/// What one visit recorded, frame by frame.
struct Visit {
    rate: f64,
    bad_replies: u64,
    wall_ns: f64,
    /// Time the generator sat waiting for due times.
    idle_ns: f64,
    /// The pooled fleet cost each `place` reply reported.
    place_costs: Vec<f64>,
    kind: Vec<f64>,
    latency_ns: Vec<f64>,
    late_ns: Vec<f64>,
    handle_ns: Vec<f64>,
    backlog: Vec<f64>,
    checkpoint: Vec<f64>,
}

impl Visit {
    fn to_json(&self) -> Json {
        Json::object([
            ("rate", Json::Number(self.rate)),
            ("frames", Json::Number(self.kind.len() as f64)),
            ("bad_replies", Json::Number(self.bad_replies as f64)),
            ("wall_ns", Json::Number(self.wall_ns)),
            ("kind", nums(&self.kind)),
            ("latency_ns", nums(&self.latency_ns)),
            ("late_ns", nums(&self.late_ns)),
            ("handle_ns", nums(&self.handle_ns)),
            ("backlog", nums(&self.backlog)),
            ("checkpoint", nums(&self.checkpoint)),
        ])
    }
}

struct ScriptFrame {
    kind: usize,
    id: String,
    line: String,
}

/// The seeded frame script of one visit to a rung: whole rounds, cut
/// at `frames`. Apps are drawn from the daemon fleet's three.
/// Interactive frames carry no arrival stamp, so the server serves each
/// before reading the next.
fn script(seed: u64, visit: usize, frames: usize) -> Vec<ScriptFrame> {
    let mut rng = Rng::from_seed(split_seed(seed, 0xD0E_0000 + visit as u64));
    let mut kinds = Vec::with_capacity(frames + ROUND.len() + 2);
    let mut round = 0;
    while kinds.len() < frames {
        kinds.extend(ROUND);
        round += 1;
        if round % PLACE_EVERY == 0 {
            kinds.push(3);
        }
        if round % TICK_EVERY == 0 {
            kinds.push(4);
        }
    }
    kinds.truncate(frames);
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let id = format!("v{visit}-{i}");
            let app = APPS[(rng.next_u64() % APPS.len() as u64) as usize];
            let other = APPS.iter().find(|&&a| a != app).expect("three apps");
            let line = match KINDS[kind] {
                "predict" if rng.gen_bool(0.5) => format!(
                    r#"{{"id":"{id}","kind":"predict","app":"{app}","corunners":["{other}"]}}"#
                ),
                "predict" => {
                    format!(r#"{{"id":"{id}","kind":"predict","app":"{app}","corunners":[]}}"#)
                }
                "status" => format!(r#"{{"id":"{id}","kind":"status"}}"#),
                "observe" => format!(
                    r#"{{"id":"{id}","kind":"observe","app":"{app}","corunners":["{other}"],"normalized":{:.3}}}"#,
                    1.0 + rng.gen_f64() * 0.3
                ),
                "place" => format!(r#"{{"id":"{id}","kind":"place","iterations":400}}"#),
                _ => format!(r#"{{"id":"{id}","kind":"tick"}}"#),
            };
            ScriptFrame { kind, id, line }
        })
        .collect()
}

/// Waits for `due`; returns how long the generator sat idle.
fn wait_until(due: Instant) -> Duration {
    let start = Instant::now();
    loop {
        let now = Instant::now();
        if now >= due {
            return now - start;
        }
        let left = due - now;
        if left > Duration::from_micros(1500) {
            std::thread::sleep(left - Duration::from_micros(1000));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Whether `reply` is an `ok` reply to request `id`.
fn ok_reply(reply: &str, id: &str) -> bool {
    let Ok(value) = icm_json::parse(reply) else {
        return false;
    };
    value.get("status").and_then(Json::as_str) == Some("ok")
        && value.get("id").and_then(Json::as_str) == Some(id)
}

/// Sends one visit's script on schedule and records every frame.
fn visit(
    server: &mut Server,
    seed: u64,
    index: usize,
    rate: f64,
    frames: usize,
    spans: &mut Spans,
) -> Result<Visit, String> {
    let script = script(seed, index, frames);
    let mut bytes = Vec::new();
    for f in &script {
        bytes.extend_from_slice(f.line.as_bytes());
        bytes.push(b'\n');
    }
    let mut reader = FrameReader::new(BufReader::new(bytes.as_slice()));
    let cadence = server.config().checkpoint_every.max(1);
    let (mut latency, mut late, mut handle, mut backlog) = (vec![], vec![], vec![], vec![]);
    let mut checkpoint = Vec::new();
    let mut replies = Vec::with_capacity(frames);
    let mut idle = Duration::ZERO;
    let start = Instant::now();
    for (i, f) in script.iter().enumerate() {
        let req = ((index as u64) << 32) | i as u64;
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        idle += wait_until(due);
        let sent = Instant::now();
        let overdue = ((sent - start).as_secs_f64() * rate) as usize;
        backlog.push(overdue.saturating_sub(i) as f64);
        let frame = spans
            .time("server.frame", req, |_| reader.next_frame())
            .map_err(|e| e.to_string())?;
        if spans.enabled() {
            if let Frame::Line(line) = &frame {
                let _ = spans.time("server.parse", req, |_| Request::parse(line));
            }
        }
        let before = server.committed();
        let begin = Instant::now();
        let out = spans
            .time(handle_span(f.kind), req, |_| server.handle_frame(&frame))
            .map_err(|e| format!("frame {}: {e}", f.id))?;
        let done = Instant::now();
        checkpoint.push(f64::from(u8::from(
            server.committed() / cadence != before / cadence,
        )));
        latency.push((done - due).as_nanos() as f64);
        late.push((sent - due).as_nanos() as f64);
        handle.push((done - begin).as_nanos() as f64);
        replies.push(out);
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let mut bad = 0u64;
    let mut place_costs = Vec::new();
    for (f, out) in script.iter().zip(&replies) {
        if out.len() != 1 || !ok_reply(&out[0], &f.id) {
            bad += 1;
            continue;
        }
        if KINDS[f.kind] == "place" {
            let cost = icm_json::parse(&out[0])
                .ok()
                .and_then(|v| v.get("payload")?.get("cost")?.as_f64());
            place_costs.push(cost.unwrap_or(f64::NAN));
        }
    }
    Ok(Visit {
        rate,
        bad_replies: bad,
        wall_ns,
        idle_ns: idle.as_nanos() as f64,
        place_costs,
        kind: script.iter().map(|f| f.kind as f64).collect(),
        latency_ns: latency,
        late_ns: late,
        handle_ns: handle,
        backlog,
        checkpoint,
    })
}

fn handle_span(kind: usize) -> &'static str {
    [
        "server.handle.predict",
        "server.handle.status",
        "server.handle.observe",
        "server.handle.place",
        "server.handle.tick",
    ][kind]
}

/// One daemon life: fresh starts, the ladder within `seconds`, then the
/// journal and recovery gates.
fn life(seed: u64, seconds: f64, work: &Path, spans: &mut Spans) -> Result<Json, String> {
    let life_start = Instant::now();
    // The daemon is configured as deployed (the default seed); the
    // benchmark seed drives only its traffic.
    let mut config = ServerConfig::new(ExpConfig::default().seed, false);
    config.sync = false;
    let mut setup_ns = Vec::new();
    let mut server = None;
    for i in 0..SETUP_STARTS {
        let dir = work.join(format!("daemon-state-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let begin = Instant::now();
        let started = spans
            .time("server.start", 0, |_| {
                Server::start(config.clone(), Some(&dir))
            })
            .map_err(|e| format!("Server::start: {e}"))?;
        setup_ns.push(begin.elapsed().as_nanos() as f64);
        if let Some(previous) = server.replace((started, dir)) {
            drop(previous.0);
            let _ = std::fs::remove_dir_all(previous.1);
        }
    }
    let (mut server, dir) = server.expect("SETUP_STARTS is at least one");
    let solo_s: f64 = server
        .fleet()
        .apps()
        .iter()
        .map(|a| a.online.base().solo_seconds())
        .sum();

    let frames = (seconds * VISIT_FRAMES_PER_SECOND).round() as usize;
    let mut visits = Vec::new();
    for (index, &rate) in RATES.iter().cycle().take(CYCLES * RATES.len()).enumerate() {
        visits.push(visit(&mut server, seed, index, rate, frames, spans)?);
    }
    let place_costs: Vec<f64> = visits
        .iter()
        .flat_map(|v| v.place_costs.iter().copied())
        .collect();
    let idle_ns: f64 = visits.iter().map(|v| v.idle_ns).sum();
    server.finish().map_err(|e| e.to_string())?;
    let committed = server.committed();
    drop(server);

    // Gates: the journal holds one committed reply per frame, and a
    // restart on the same directory recovers without an integrity error.
    let journal_path = dir.join("journal.log");
    let journal_bytes = std::fs::metadata(&journal_path)
        .map_err(|e| e.to_string())?
        .len();
    let (_, entries) = LineJournal::open(&journal_path, false).map_err(|e| e.to_string())?;
    let recovered = spans.time("server.recover", 0, |_| {
        Server::start(config.clone(), Some(&dir))
    });
    let recovered_committed = match &recovered {
        Ok(s) => s.committed() as f64,
        Err(e) => {
            eprintln!("daemon-mix: recovery failed: {e}");
            -1.0
        }
    };
    drop(recovered);
    let peak_rss_mb = peak_rss_mb();
    Ok(Json::object([
        ("peak_rss_mb", Json::Number(peak_rss_mb)),
        ("setup_ns", nums(&setup_ns)),
        ("solo_s", Json::Number(solo_s)),
        (
            "visits",
            Json::Array(visits.iter().map(Visit::to_json).collect()),
        ),
        ("committed", Json::Number(committed as f64)),
        ("journal_entries", Json::Number(entries.len() as f64)),
        ("journal_bytes", Json::Number(journal_bytes as f64)),
        ("recovered_committed", Json::Number(recovered_committed)),
        ("place_costs", nums(&place_costs)),
        ("idle_ns", Json::Number(idle_ns)),
        (
            "wall_ns",
            Json::Number(life_start.elapsed().as_nanos() as f64),
        ),
    ]))
}

/// Runs one daemon life over `seconds`; a traced run instead runs an
/// untraced and a traced life of half the length each, on the same
/// script, so the tracing overhead is measured in the run.
pub fn run(seed: u64, seconds: f64, work: &Path, trace: bool) -> Result<Json, String> {
    let mut untraced = Spans::new(false);
    let lives = if trace {
        let mut traced = Spans::new(true);
        let lives = vec![
            life(seed, seconds / 2.0, work, &mut untraced)?,
            life(seed, seconds / 2.0, work, &mut traced)?,
        ];
        traced
            .write(&work.join("spans.tsv"))
            .map_err(|e| e.to_string())?;
        lives
    } else {
        vec![life(seed, seconds, work, &mut untraced)?]
    };
    Ok(Json::object([("lives", Json::Array(lives))]))
}
