//! `serve` — the daemon under load.
//!
//! Drives an in-process [`icm_server::Server`] with a seeded request
//! script: steady interactive-rate traffic, declared overload bursts
//! that exceed the queue bound, malformed/oversized/invalid-UTF-8
//! frames, and a mid-stream kill (the server is dropped without
//! draining and recovered from its own journal, intake log, and
//! checkpoints — the process-level `kill -9` drill lives in the server
//! crate's tests and `verify.sh`). Afterwards the committed-reply
//! journal is the measurement: virtual p50/p99 latency of served
//! requests, shed rate under overload, degraded fraction, and two
//! robustness verdict inputs — committed replies lost across the kill
//! (must be zero) and byte-identity of a same-seed uninterrupted rerun.
//!
//! Every metric is on the server's virtual clock, so the whole result
//! is deterministic for a given seed.

use std::path::{Path, PathBuf};

use icm_json::Json;
use icm_obs::QuantileSketch;
use icm_rng::{split_seed, Rng};
use icm_server::frame::Frame;
use icm_server::journal::LineJournal;
use icm_server::server::Server;
use icm_server::world::ServerConfig;

use crate::context::{ExpConfig, ExpError};
use crate::table::{f2, Table};

/// Deadline budget (virtual ms) given to every scripted request, and
/// the bound the report holds p99 of served requests to.
pub const SCRIPT_DEADLINE_MS: u64 = 80;

/// What the daemon did under the scripted load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// Frames the driver sent (requests + damaged frames).
    pub frames: u64,
    /// Well-formed requests among them.
    pub requests: u64,
    /// Replies committed to the journal over both server lives.
    pub committed: u64,
    /// Requests served to an `ok` reply.
    pub served: u64,
    /// Served replies that were degraded (stale cache under
    /// saturation).
    pub degraded: u64,
    /// Requests shed with a typed `overloaded` reply.
    pub shed: u64,
    /// Sheds that happened outside the script's declared overload
    /// bursts (the report fails on any).
    pub shed_outside_overload: u64,
    /// Requests refused with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Typed error replies (malformed frames, unknown apps, …).
    pub errors: u64,
    /// Virtual p50 latency of served requests, microseconds.
    pub p50_us: f64,
    /// Virtual p99 latency of served requests, microseconds.
    pub p99_us: f64,
    /// The deadline budget every scripted request declared,
    /// microseconds.
    pub deadline_budget_us: u64,
    /// Sustained service rate: served requests per virtual second.
    pub served_per_vs: f64,
    /// Committed replies acknowledged before the mid-stream kill that
    /// the recovered journal no longer carries verbatim. Crash safety
    /// means zero.
    pub lost_committed: u64,
    /// Whether an uninterrupted same-seed rerun committed a
    /// byte-identical journal (determinism across the kill).
    pub journal_identical: bool,
    /// Fraction of served requests that were degraded.
    pub degraded_fraction: f64,
}

icm_json::impl_json!(struct ServeResult {
    frames,
    requests,
    committed,
    served,
    degraded,
    shed,
    shed_outside_overload,
    deadline_exceeded,
    errors,
    p50_us,
    p99_us,
    deadline_budget_us,
    served_per_vs,
    lost_committed,
    journal_identical,
    degraded_fraction,
});

/// One scripted frame, tagged with whether it was sent inside a
/// declared overload burst.
struct ScriptFrame {
    frame: Frame,
    request_id: Option<String>,
    in_burst: bool,
}

/// Builds the seeded load script: `rounds` rounds of steady traffic,
/// each third round followed by an overload burst at one arrival stamp,
/// with damaged frames sprinkled on a seeded schedule.
fn build_script(seed: u64, rounds: u64, queue_capacity: usize) -> Vec<ScriptFrame> {
    let mut rng = Rng::from_seed(split_seed(seed, 0x5e17e));
    let mut frames = Vec::new();
    let request = |frames: &mut Vec<ScriptFrame>, id: String, body: String, in_burst: bool| {
        frames.push(ScriptFrame {
            frame: Frame::Line(body),
            request_id: Some(id),
            in_burst,
        });
    };
    let mut at_ms = 1_000u64;
    for round in 0..rounds {
        // Steady phase: arrivals spaced far beyond service cost, so
        // nothing queues deep and nothing sheds.
        for i in 0..3 {
            let id = format!("p{round}-{i}");
            let corunners = if rng.gen_bool(0.5) {
                r#"["H.KM"]"#
            } else {
                "[]"
            };
            let body = format!(
                r#"{{"id":"{id}","kind":"predict","app":"M.milc","corunners":{corunners},"deadline_ms":{SCRIPT_DEADLINE_MS},"at_ms":{at_ms}}}"#
            );
            request(&mut frames, id, body, false);
            at_ms += 40;
        }
        let id = format!("o{round}");
        let body = format!(
            r#"{{"id":"{id}","kind":"observe","app":"H.KM","corunners":["M.milc"],"normalized":{},"deadline_ms":{SCRIPT_DEADLINE_MS},"at_ms":{at_ms}}}"#,
            1.0 + f64::from(u32::try_from(round % 7).unwrap_or(0)) / 20.0
        );
        request(&mut frames, id, body, false);
        at_ms += 40;
        // Damaged frames on a seeded schedule: typed errors, no desync.
        if rng.gen_bool(0.4) {
            frames.push(ScriptFrame {
                frame: Frame::Line("{not quite json".to_owned()),
                request_id: None,
                in_burst: false,
            });
        }
        if rng.gen_bool(0.25) {
            frames.push(ScriptFrame {
                frame: Frame::InvalidUtf8,
                request_id: None,
                in_burst: false,
            });
        }
        if rng.gen_bool(0.25) {
            frames.push(ScriptFrame {
                frame: Frame::Oversized(100_000 + (rng.next_u64() % 100_000) as usize),
                request_id: None,
                in_burst: false,
            });
        }
        // Declared overload burst: more same-instant arrivals than the
        // queue holds, so the excess must shed typed.
        if round % 3 == 2 {
            let burst = queue_capacity + 4 + (rng.next_u64() % 4) as usize;
            for i in 0..burst {
                let id = format!("b{round}-{i}");
                let priority = rng.next_u64() % 4;
                let body = format!(
                    r#"{{"id":"{id}","kind":"predict","app":"M.milc","corunners":["H.KM"],"priority":{priority},"deadline_ms":{SCRIPT_DEADLINE_MS},"at_ms":{at_ms}}}"#
                );
                request(&mut frames, id, body, true);
            }
            at_ms += 500;
        }
        let id = format!("s{round}");
        let body = format!(
            r#"{{"id":"{id}","kind":"status","deadline_ms":{SCRIPT_DEADLINE_MS},"at_ms":{at_ms}}}"#
        );
        request(&mut frames, id, body, false);
        at_ms += 200;
    }
    frames
}

/// A fresh state directory, keyed by thread as well as process: one
/// process may run this study on several threads at once.
fn scratch_dir(tag: &str, seed: u64) -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id());
    let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
    let name = format!("icm-serve-{tag}-{seed}-{}-{thread}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config(cfg: &ExpConfig) -> ServerConfig {
    let mut config = ServerConfig::new(cfg.seed, cfg.fast);
    config.sync = false; // scratch filesystem; the crash is simulated by drop
    config.checkpoint_every = 8;
    config.keep_checkpoints = 3;
    config
}

/// Feeds `script[from..]` to `server`, stopping early after `stop_after`
/// frames when given. Returns the index one past the last frame fed.
fn drive(
    server: &mut Server,
    script: &[ScriptFrame],
    from: usize,
    stop_after: Option<usize>,
) -> Result<usize, ExpError> {
    let mut fed = from;
    for scripted in &script[from..] {
        if let Some(limit) = stop_after {
            if fed >= limit {
                return Ok(fed);
            }
        }
        server
            .handle_frame(&scripted.frame)
            .map_err(|e| ExpError::new(e.to_string()))?;
        fed += 1;
    }
    server.finish().map_err(|e| ExpError::new(e.to_string()))?;
    Ok(fed)
}

fn read_journal(dir: &Path) -> Result<Vec<String>, ExpError> {
    let (_, entries) = LineJournal::open(&dir.join("journal.log"), false)
        .map_err(|e| ExpError::new(e.to_string()))?;
    Ok(entries.into_iter().map(|e| e.reply_line).collect())
}

/// Runs the daemon-under-load experiment.
///
/// # Errors
///
/// World construction or persistence failures; protocol-level trouble
/// is typed traffic, not an error.
pub fn run(cfg: &ExpConfig) -> Result<ServeResult, ExpError> {
    let rounds = if cfg.fast { 6 } else { 15 };
    let config = server_config(cfg);
    let script = build_script(cfg.seed, rounds, config.queue_capacity);
    let kill_at = script.len() / 2;

    // Life 1: serve half the script, then die without draining.
    let state = scratch_dir("main", cfg.seed);
    let mut server =
        Server::start(config.clone(), Some(&state)).map_err(|e| ExpError::new(e.to_string()))?;
    drive(&mut server, &script, 0, Some(kill_at))?;
    let committed_before_kill = read_journal(&state)?;
    drop(server); // mid-stream kill: queue contents and cache vanish

    // Life 2: recover and serve the rest.
    let mut server =
        Server::start(config.clone(), Some(&state)).map_err(|e| ExpError::new(e.to_string()))?;
    let resume = usize::try_from(server.consumed_frames()).unwrap_or(usize::MAX);
    drive(&mut server, &script, resume, None)?;
    let committed = server.committed();
    drop(server);
    let journal = read_journal(&state)?;

    // Crash-safety ledger: every reply acknowledged before the kill
    // must survive verbatim, in order.
    let lost_committed = committed_before_kill
        .iter()
        .zip(journal.iter().chain(std::iter::repeat(&String::new())))
        .filter(|(before, after)| before != after)
        .count() as u64;

    // Determinism ledger: an uninterrupted same-seed run commits the
    // same bytes.
    let reference = scratch_dir("ref", cfg.seed);
    let mut server = Server::start(config.clone(), Some(&reference))
        .map_err(|e| ExpError::new(e.to_string()))?;
    drive(&mut server, &script, 0, None)?;
    drop(server);
    let reference_journal = read_journal(&reference)?;
    let journal_identical = reference_journal == journal;

    // Measure from the journal — the committed record, not a side
    // channel.
    let burst_ids: std::collections::BTreeSet<&str> = script
        .iter()
        .filter(|s| s.in_burst)
        .filter_map(|s| s.request_id.as_deref())
        .collect();
    let mut served = 0u64;
    let mut degraded = 0u64;
    let mut shed = 0u64;
    let mut shed_outside = 0u64;
    let mut deadline_exceeded = 0u64;
    let mut errors = 0u64;
    let mut latencies = QuantileSketch::new();
    let mut last_clock_us = 0f64;
    for line in &journal {
        let reply = icm_json::parse(line).map_err(|e| ExpError::new(e.to_string()))?;
        let status = reply
            .get("status")
            .and_then(Json::as_str)
            .ok_or_else(|| ExpError::new("journaled reply without a status"))?;
        match status {
            "ok" => {
                served += 1;
                if reply.get("degraded").and_then(Json::as_bool) == Some(true) {
                    degraded += 1;
                }
                if let Some(latency) = reply.get("latency_us").and_then(Json::as_f64) {
                    latencies.observe(latency);
                }
                if let Some(clock) = reply
                    .get("payload")
                    .and_then(|p| p.get("clock_us"))
                    .and_then(Json::as_f64)
                {
                    last_clock_us = last_clock_us.max(clock);
                }
            }
            "overloaded" => {
                shed += 1;
                let id = reply.get("id").and_then(Json::as_str).unwrap_or("");
                if !burst_ids.contains(id) {
                    shed_outside += 1;
                }
            }
            "deadline_exceeded" => deadline_exceeded += 1,
            "error" => errors += 1,
            other => return Err(ExpError::new(format!("unknown reply status `{other}`"))),
        }
    }
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&reference);

    let requests = script.iter().filter(|s| s.request_id.is_some()).count() as u64;
    Ok(ServeResult {
        frames: script.len() as u64,
        requests,
        committed,
        served,
        degraded,
        shed,
        shed_outside_overload: shed_outside,
        deadline_exceeded,
        errors,
        p50_us: latencies.quantile(0.50).unwrap_or(0.0),
        p99_us: latencies.quantile(0.99).unwrap_or(0.0),
        deadline_budget_us: SCRIPT_DEADLINE_MS * 1_000,
        served_per_vs: if last_clock_us > 0.0 {
            served as f64 / (last_clock_us / 1_000_000.0)
        } else {
            0.0
        },
        lost_committed,
        journal_identical,
        degraded_fraction: if served > 0 {
            degraded as f64 / served as f64
        } else {
            0.0
        },
    })
}

/// Renders the serve table.
pub fn render(result: &ServeResult) -> String {
    let mut table = Table::new(format!(
        "Serve: {} frames ({} requests) through a killed-and-recovered daemon",
        result.frames, result.requests
    ));
    table.headers([
        "served",
        "p50 (µvs)",
        "p99 (µvs)",
        "req/vs",
        "shed",
        "degraded",
        "deadline",
        "errors",
        "lost",
        "identical",
    ]);
    table.row([
        result.served.to_string(),
        f2(result.p50_us),
        f2(result.p99_us),
        f2(result.served_per_vs),
        result.shed.to_string(),
        format!("{} ({})", result.degraded, f2(result.degraded_fraction)),
        result.deadline_exceeded.to_string(),
        result.errors.to_string(),
        result.lost_committed.to_string(),
        if result.journal_identical {
            "yes"
        } else {
            "no"
        }
        .to_string(),
    ]);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_daemon_survives_its_load_script() {
        let cfg = ExpConfig {
            seed: 2016,
            fast: true,
        };
        let result = run(&cfg).expect("runs");
        assert!(result.served > 0, "requests were served");
        assert!(result.shed > 0, "bursts forced typed sheds");
        assert_eq!(
            result.shed_outside_overload, 0,
            "sheds only under declared overload"
        );
        assert_eq!(result.lost_committed, 0, "no acknowledged reply lost");
        assert!(
            result.journal_identical,
            "same-seed rerun commits identical bytes"
        );
        assert!(result.errors > 0, "damaged frames became typed errors");
        assert!(
            result.p99_us <= result.deadline_budget_us as f64,
            "p99 of served requests within the declared budget: {} vs {}",
            result.p99_us,
            result.deadline_budget_us
        );
        let text = render(&result);
        assert!(text.contains("Serve:"));
    }

    #[test]
    fn the_script_is_a_pure_function_of_the_seed() {
        let a = build_script(7, 4, 8);
        let b = build_script(7, 4, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.frame, y.frame);
            assert_eq!(x.in_burst, y.in_burst);
        }
    }
}
