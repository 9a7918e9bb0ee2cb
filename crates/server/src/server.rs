//! The serving engine: a deterministic request processor with deadline
//! budgets, admission control, graceful degradation, and write-ahead
//! crash safety.
//!
//! # The virtual clock
//!
//! Every scheduling decision — queue wait, deadline refusal, overload
//! shedding, cache staleness — runs on a *virtual* clock in integer
//! microseconds. Arrivals carry explicit virtual stamps (`at_ms`), and
//! each operation is charged a fixed deterministic cost. Two runs fed
//! the same frames therefore make byte-identical decisions and emit
//! byte-identical replies, no matter how the OS schedules them: the
//! server never reads a wall clock. This is the manager's determinism
//! contract extended to traffic.
//!
//! # Crash safety
//!
//! Three files under the state directory cooperate:
//!
//! * `intake.log` — every accepted frame, appended *before* it is
//!   processed;
//! * `journal.log` — every reply, appended *before* it is released
//!   (write-ahead: an acknowledged reply is durable by construction);
//! * `checkpoints/` — periodic [`ServerSnapshot`] generations through
//!   [`SnapshotStore`], pruned to a bounded count.
//!
//! Recovery loads the newest usable checkpoint, then re-feeds the
//! intake suffix through the same engine: replies that were already
//! committed are *verified byte-for-byte* against the journal (a
//! mismatch is corruption, not a shrug), replies past the journal's
//! torn tail are committed fresh. `kill -9` at any instant loses no
//! acknowledged reply and leaves the journal byte-identical to an
//! uninterrupted run's.

use std::collections::VecDeque;
use std::path::Path;

use icm_json::fs::SnapshotStore;
use icm_json::{Json, JsonError, ObjectWriter};
use icm_manager::snapshot::{WorldSnapshot, WORLD_SNAPSHOT_VERSION};
use icm_manager::{Fleet, FleetObjective, ManagedRun, ManagerConfig};
use icm_obs::Tracer;
use icm_placement::{anneal, AnnealConfig};
use icm_simcluster::SimTestbed;

use crate::cache::{CacheEntry, PredictionCache};
use crate::error::ServerError;
use crate::frame::Frame;
use crate::journal::{JournalEntry, LineJournal};
use crate::protocol::{ErrorCode, Reply, Request, RequestKind};
use crate::queue::{Admission, AdmissionQueue, Pending};
use crate::world::{build_world, context_for, ServerConfig};

/// Virtual cost of a fresh model prediction (microseconds).
pub const PREDICT_FULL_COST_US: u64 = 2_000;
/// Virtual cost of serving a cached prediction.
pub const PREDICT_CACHED_COST_US: u64 = 50;
/// Virtual cost of folding in one observation.
pub const OBSERVE_COST_US: u64 = 500;
/// Virtual base cost of a placement search.
pub const PLACE_BASE_COST_US: u64 = 1_000;
/// Virtual cost per annealing iteration of a placement search.
pub const PLACE_PER_ITERATION_COST_US: u64 = 10;
/// Virtual cost of one supervised manager tick.
pub const TICK_COST_US: u64 = 20_000;
/// Virtual cost of a status or shutdown request.
pub const STATUS_COST_US: u64 = 20;
/// Virtual cost charged for a typed refusal (deadline, unknown app,
/// open circuit) — refusing is cheap but not free.
pub const REJECT_COST_US: u64 = 10;

/// Current server snapshot payload version.
pub const SERVER_SNAPSHOT_VERSION: u64 = 1;

/// Reply counters, by outcome. They travel in snapshots so `status`
/// replies stay byte-identical across a kill and resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// Requests executed to an `ok` reply.
    pub completed: u64,
    /// `ok` replies served stale from the cache under saturation.
    pub degraded: u64,
    /// Requests shed with `overloaded`.
    pub shed: u64,
    /// Requests refused with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Requests refused with a typed `error` reply.
    pub refused: u64,
    /// Frames refused before parsing (oversized, invalid UTF-8,
    /// truncated).
    pub malformed: u64,
}

icm_json::impl_json!(struct Counters {
    completed,
    degraded,
    shed,
    deadline_exceeded,
    refused,
    malformed,
});

/// The complete serializable state of a quiescent server (empty
/// queue): the supervised world plus the serving layer around it.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// Payload format version ([`SERVER_SNAPSHOT_VERSION`]).
    pub version: u64,
    /// The server configuration the world was built with.
    pub config: ServerConfig,
    /// The supervised world (testbed, fleet, manager run, tracer).
    pub world: WorldSnapshot,
    /// The virtual clock, microseconds.
    pub clock_us: u64,
    /// Largest arrival stamp accepted so far (monotonicity clamp).
    pub last_arrival_us: u64,
    /// Admission stamps handed out so far.
    pub admit_stamp: u64,
    /// Committed replies reflected in this snapshot's state.
    pub journal_seq: u64,
    /// Intake entries reflected in this snapshot's state.
    pub intake_seq: u64,
    /// The prediction cache, entries and LRU stamps included.
    pub cache: Vec<CacheEntry>,
    /// Reply counters at snapshot time.
    pub counters: Counters,
    /// Whether a shutdown had been accepted.
    pub shutting_down: bool,
}

icm_json::impl_json!(struct ServerSnapshot {
    version,
    config,
    world,
    clock_us,
    last_arrival_us,
    admit_stamp,
    journal_seq,
    intake_seq,
    cache,
    counters,
    shutting_down,
});

impl ServerSnapshot {
    /// Parses snapshot text, rejecting unknown versions before a full
    /// decode.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] describing the version or payload problem.
    pub fn parse(text: &str) -> Result<Self, JsonError> {
        let value = icm_json::parse(text)?;
        let version = value
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| JsonError::msg("ServerSnapshot: missing `version`"))?;
        if version != SERVER_SNAPSHOT_VERSION as f64 {
            return Err(JsonError::msg(format!(
                "ServerSnapshot: version {version} (this build reads {SERVER_SNAPSHOT_VERSION})"
            )));
        }
        use icm_json::FromJson;
        Self::from_json(&value)
    }
}

/// How an accepted frame is recorded in the intake log, so recovery can
/// re-feed malformed frames as faithfully as clean ones.
fn intake_record(frame: &Frame) -> String {
    let mut record = String::new();
    let mut object = ObjectWriter::new(&mut record);
    match frame {
        Frame::Line(line) => object.field("frame", "line").field("data", line),
        Frame::Oversized(bytes) => object.field("frame", "oversized").field("bytes", bytes),
        Frame::InvalidUtf8 => object.field("frame", "bad_utf8"),
        Frame::Truncated => object.field("frame", "truncated"),
        Frame::Eof => object.field("frame", "eof"),
    };
    object.finish();
    record
}

fn parse_intake_record(line: &str) -> Result<Frame, ServerError> {
    let value =
        icm_json::parse(line).map_err(|e| ServerError::new(format!("intake record: {e}")))?;
    let kind = value
        .get("frame")
        .and_then(Json::as_str)
        .ok_or_else(|| ServerError::new("intake record: missing `frame`"))?;
    Ok(match kind {
        "line" => Frame::Line(
            value
                .get("data")
                .and_then(Json::as_str)
                .ok_or_else(|| ServerError::new("intake record: missing `data`"))?
                .to_owned(),
        ),
        "oversized" => {
            Frame::Oversized(value.get("bytes").and_then(Json::as_f64).unwrap_or(0.0) as usize)
        }
        "bad_utf8" => Frame::InvalidUtf8,
        "truncated" => Frame::Truncated,
        "eof" => Frame::Eof,
        other => {
            return Err(ServerError::new(format!(
                "intake record: unknown frame kind `{other}`"
            )))
        }
    })
}

/// The persistent placement daemon.
pub struct Server {
    config: ServerConfig,
    manager_config: ManagerConfig,
    testbed: SimTestbed,
    fleet: Fleet,
    run: ManagedRun,
    tracer: Tracer,
    queue: AdmissionQueue,
    cache: PredictionCache,
    clock_us: u64,
    last_arrival_us: u64,
    admit_stamp: u64,
    counters: Counters,
    shutting_down: bool,
    journal: Option<LineJournal>,
    intake: Option<LineJournal>,
    store: Option<SnapshotStore>,
    /// Journal entries recovery must re-produce byte-for-byte before
    /// any fresh commit is allowed.
    verify: VecDeque<JournalEntry>,
    replaying: bool,
    commits_since_checkpoint: u64,
    committed_total: u64,
    /// Intake entries the current state reflects (consumed frames).
    intake_pos: u64,
}

impl Server {
    /// Starts a daemon. With a state directory, persistence is armed
    /// (intake log, write-ahead journal, periodic checkpoints) and a
    /// previous life's state is recovered: newest usable checkpoint,
    /// then deterministic re-execution of the intake suffix, verifying
    /// already-committed replies byte-for-byte.
    ///
    /// # Errors
    ///
    /// World construction, persistence I/O, or an integrity break
    /// (journal/checkpoint corruption that recovery cannot prove safe).
    pub fn start(config: ServerConfig, state_dir: Option<&Path>) -> Result<Self, ServerError> {
        let tracer = Tracer::disabled();
        let (store, snapshot, journal, journal_entries, intake, intake_entries) = match state_dir {
            None => (None, None, None, Vec::new(), None, Vec::new()),
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let store = SnapshotStore::open(&dir.join("checkpoints"))?;
                let snapshot = load_snapshot(&store)?;
                let (journal, journal_entries) =
                    LineJournal::open(&dir.join("journal.log"), config.sync)?;
                let (intake, intake_entries) =
                    LineJournal::open(&dir.join("intake.log"), config.sync)?;
                (
                    Some(store),
                    snapshot,
                    Some(journal),
                    journal_entries,
                    Some(intake),
                    intake_entries,
                )
            }
        };
        let mut server = match snapshot {
            Some(snapshot) => {
                if (journal_entries.len() as u64) < snapshot.journal_seq {
                    return Err(ServerError::new(format!(
                        "journal holds {} entries but the checkpoint reflects {} — \
                         committed history is missing",
                        journal_entries.len(),
                        snapshot.journal_seq
                    )));
                }
                if (intake_entries.len() as u64) < snapshot.intake_seq {
                    return Err(ServerError::new(format!(
                        "intake log holds {} entries but the checkpoint reflects {} — \
                         accepted frames are missing",
                        intake_entries.len(),
                        snapshot.intake_seq
                    )));
                }
                let mut testbed = SimTestbed::restore(snapshot.world.testbed);
                testbed.set_tracer(tracer.clone());
                Self {
                    manager_config: snapshot.world.config,
                    queue: AdmissionQueue::new(snapshot.config.queue_capacity),
                    cache: PredictionCache::restore(snapshot.config.cache_capacity, snapshot.cache),
                    clock_us: snapshot.clock_us,
                    last_arrival_us: snapshot.last_arrival_us,
                    admit_stamp: snapshot.admit_stamp,
                    counters: snapshot.counters,
                    shutting_down: snapshot.shutting_down,
                    committed_total: snapshot.journal_seq,
                    config: snapshot.config,
                    testbed,
                    fleet: snapshot.world.fleet,
                    run: snapshot.world.run,
                    tracer,
                    journal,
                    intake,
                    store,
                    verify: VecDeque::new(),
                    replaying: false,
                    commits_since_checkpoint: 0,
                    intake_pos: snapshot.intake_seq,
                }
            }
            None => {
                let (testbed, fleet, manager_config, run) = build_world(&config)?;
                Self {
                    queue: AdmissionQueue::new(config.queue_capacity),
                    cache: PredictionCache::new(config.cache_capacity),
                    clock_us: 0,
                    last_arrival_us: 0,
                    admit_stamp: 0,
                    counters: Counters::default(),
                    shutting_down: false,
                    committed_total: 0,
                    config,
                    manager_config,
                    testbed,
                    fleet,
                    run,
                    tracer,
                    journal,
                    intake,
                    store,
                    verify: VecDeque::new(),
                    replaying: false,
                    commits_since_checkpoint: 0,
                    intake_pos: 0,
                }
            }
        };
        // Re-execute the intake suffix. Replies up to the journal's
        // recovered tail must re-materialize byte-for-byte; anything
        // past it is committed fresh (it was computed but never
        // acknowledged before the crash).
        let resume_intake = server.intake_pos;
        server.verify = journal_entries
            .into_iter()
            .skip(server.committed_total as usize)
            .collect();
        server.replaying = true;
        for entry in intake_entries.into_iter().skip(resume_intake as usize) {
            let frame = parse_intake_record(&entry.reply_line)?;
            server.ingest(&frame)?;
        }
        server.replaying = false;
        if let Some(stale) = server.verify.pop_front() {
            return Err(ServerError::new(format!(
                "journal entry {} was committed but deterministic replay never \
                 re-produced it",
                stale.seq
            )));
        }
        Ok(server)
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The supervised fleet.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Mutable fleet access (attach quality grids before serving).
    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    /// The virtual clock, microseconds.
    pub fn clock_us(&self) -> u64 {
        self.clock_us
    }

    /// Reply counters so far.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Pending request count.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total committed replies over the server's whole life.
    pub fn committed(&self) -> u64 {
        self.committed_total
    }

    /// Frames consumed over the server's whole life (recovered lives
    /// included). A scripted driver resuming after a crash skips this
    /// many frames of its script — the intake log already owns them.
    pub fn consumed_frames(&self) -> u64 {
        self.intake_pos
    }

    /// Whether a shutdown request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Handles one frame, returning the reply lines released by it —
    /// its own reply when served immediately, typed refusals, and any
    /// replies for queued requests whose virtual service completed
    /// before this frame's arrival stamp.
    ///
    /// # Errors
    ///
    /// Only daemon-stopping trouble (persistence I/O, integrity);
    /// malformed frames and invalid requests produce typed replies.
    pub fn handle_frame(&mut self, frame: &Frame) -> Result<Vec<String>, ServerError> {
        self.ingest(frame)
    }

    /// Drains every pending request (end of input or explicit flush)
    /// and returns the released reply lines.
    ///
    /// # Errors
    ///
    /// See [`Server::handle_frame`].
    pub fn finish(&mut self) -> Result<Vec<String>, ServerError> {
        let mut replies = Vec::new();
        while let Some(pending) = self.queue.pop_next() {
            self.process(pending, &mut replies)?;
        }
        self.maybe_checkpoint()?;
        Ok(replies)
    }

    fn ingest(&mut self, frame: &Frame) -> Result<Vec<String>, ServerError> {
        if matches!(frame, Frame::Eof) {
            return Ok(Vec::new());
        }
        if !self.replaying {
            if let Some(intake) = &mut self.intake {
                intake.commit(&intake_record(frame))?;
            }
        }
        let mut replies = Vec::new();
        match frame {
            Frame::Eof => {}
            Frame::Oversized(bytes) => {
                self.counters.malformed += 1;
                let reply = Reply::Error {
                    id: None,
                    code: ErrorCode::OversizedFrame,
                    detail: format!(
                        "frame of {bytes} bytes exceeds {} — discarded to its newline",
                        crate::frame::MAX_FRAME_BYTES
                    ),
                };
                self.commit(reply, &mut replies)?;
            }
            Frame::InvalidUtf8 => {
                self.counters.malformed += 1;
                let reply = Reply::Error {
                    id: None,
                    code: ErrorCode::InvalidUtf8,
                    detail: "frame is not valid UTF-8".into(),
                };
                self.commit(reply, &mut replies)?;
            }
            Frame::Truncated => {
                self.counters.malformed += 1;
                let reply = Reply::Error {
                    id: None,
                    code: ErrorCode::TruncatedFrame,
                    detail: "stream ended mid-frame".into(),
                };
                self.commit(reply, &mut replies)?;
            }
            Frame::Line(line) => match Request::parse(line) {
                Err(refusal) => {
                    self.counters.refused += 1;
                    let reply = Reply::Error {
                        id: refusal.id,
                        code: refusal.code,
                        detail: refusal.detail,
                    };
                    self.commit(reply, &mut replies)?;
                }
                Ok(request) => self.accept(request, &mut replies)?,
            },
        }
        // Only now is the frame fully reflected in server state.
        // Checkpoints fire exclusively at this boundary (and at
        // `finish`), so a snapshot always describes a whole number of
        // consumed frames — recovery resumes at an exact frame edge.
        self.intake_pos += 1;
        self.maybe_checkpoint()?;
        Ok(replies)
    }

    fn accept(&mut self, request: Request, replies: &mut Vec<String>) -> Result<(), ServerError> {
        let arrival_us = match request.at_ms {
            Some(ms) => ms.saturating_mul(1_000).max(self.last_arrival_us),
            None => self.clock_us.max(self.last_arrival_us),
        };
        self.last_arrival_us = arrival_us;
        self.advance_to(arrival_us, replies)?;
        if self.shutting_down {
            self.counters.refused += 1;
            let reply = Reply::Error {
                id: Some(request.id),
                code: ErrorCode::ShuttingDown,
                detail: "the server is draining".into(),
            };
            return self.commit(reply, replies);
        }
        let cost_us = estimate_cost(&request.kind);
        self.admit_stamp += 1;
        let incoming_id = request.id.clone();
        let interactive = request.at_ms.is_none();
        let pending = Pending {
            admitted: self.admit_stamp,
            arrival_us,
            request,
            cost_us,
        };
        match self.queue.admit(pending) {
            Admission::Admitted => {}
            Admission::RejectedIncoming => {
                self.counters.shed += 1;
                let reply = Reply::Overloaded {
                    id: incoming_id,
                    retry_after_us: self.queue.backlog_us(),
                };
                self.commit(reply, replies)?;
            }
            Admission::Evicted(victim) => {
                self.counters.shed += 1;
                let reply = Reply::Overloaded {
                    id: victim.request.id,
                    retry_after_us: self.queue.backlog_us(),
                };
                self.commit(reply, replies)?;
            }
        }
        if interactive {
            // No declared arrival stamp means "now, and I am waiting":
            // the server is idle between frames, so everything pending is
            // served before the next frame is read. Trace-driven load
            // (explicit `at_ms`) queues and drains on virtual time.
            while let Some(next) = self.queue.pop_next() {
                self.process(next, replies)?;
            }
        }
        Ok(())
    }

    fn advance_to(&mut self, until_us: u64, replies: &mut Vec<String>) -> Result<(), ServerError> {
        loop {
            if self.clock_us >= until_us {
                return Ok(());
            }
            if self.queue.is_empty() {
                self.clock_us = until_us;
                return Ok(());
            }
            let pending = self.queue.pop_next().expect("queue is non-empty");
            self.process(pending, replies)?;
        }
    }

    fn process(&mut self, pending: Pending, replies: &mut Vec<String>) -> Result<(), ServerError> {
        let start_us = self.clock_us.max(pending.arrival_us);
        let wait_us = start_us - pending.arrival_us;
        let budget_us = pending.request.deadline_ms.saturating_mul(1_000);
        let id = pending.request.id.clone();
        let refuse =
            |server: &mut Self, code: ErrorCode, detail: String, replies: &mut Vec<String>| {
                server.clock_us = start_us + REJECT_COST_US;
                server.counters.refused += 1;
                server.commit(
                    Reply::Error {
                        id: Some(id.clone()),
                        code,
                        detail,
                    },
                    replies,
                )
            };
        match pending.request.kind.clone() {
            RequestKind::Predict { app, corunners } => {
                let Some((index, pressures, key)) = context_for(&self.fleet, &app, &corunners)
                else {
                    return refuse(
                        self,
                        ErrorCode::UnknownApp,
                        format!("`{app}` (or a corunner) is not in the supervised fleet"),
                        replies,
                    );
                };
                let saturated = self.queue.backlog_us() > self.config.saturation_us;
                if saturated {
                    if let Some(entry) =
                        self.cache
                            .get(&app, &key, start_us, self.config.cache_max_age_us)
                    {
                        if entry.quality == "defaulted" {
                            return refuse(
                                self,
                                ErrorCode::CircuitOpen,
                                format!(
                                    "a degraded answer for `{app}` under `{key}` would rest \
                                     on defaulted model cells"
                                ),
                                replies,
                            );
                        }
                        if wait_us + PREDICT_CACHED_COST_US > budget_us {
                            return self.refuse_deadline(
                                id,
                                start_us,
                                budget_us,
                                wait_us + PREDICT_CACHED_COST_US,
                                replies,
                            );
                        }
                        self.clock_us = start_us + PREDICT_CACHED_COST_US;
                        self.counters.completed += 1;
                        self.counters.degraded += 1;
                        let latency_us = self.clock_us - pending.arrival_us;
                        let reply = Reply::Ok {
                            id,
                            degraded: true,
                            latency_us,
                            payload: Json::object([
                                ("app", Json::String(app)),
                                ("key", Json::String(key)),
                                ("predicted", Json::Number(entry.predicted)),
                                ("quality", Json::String(entry.quality)),
                                ("cached", Json::Bool(true)),
                            ]),
                        };
                        return self.commit(reply, replies);
                    }
                }
                if wait_us + PREDICT_FULL_COST_US > budget_us {
                    return self.refuse_deadline(
                        id,
                        start_us,
                        budget_us,
                        wait_us + PREDICT_FULL_COST_US,
                        replies,
                    );
                }
                let online = &self.fleet.apps()[index].online;
                let predicted = match online.predict_for(&key, &pressures) {
                    Ok(value) => value,
                    Err(e) => return refuse(self, ErrorCode::Unavailable, e.to_string(), replies),
                };
                let quality = match self.fleet.apps()[index].quality.as_ref() {
                    None => icm_core::ModelQuality::Measured.as_str(),
                    Some(grid) => {
                        let hom = online.base().convert(&pressures);
                        grid.at_hom(hom.pressure, hom.nodes).as_str()
                    }
                };
                self.clock_us = start_us + PREDICT_FULL_COST_US;
                self.cache
                    .put(&app, &key, predicted, quality, self.clock_us);
                self.counters.completed += 1;
                let latency_us = self.clock_us - pending.arrival_us;
                let reply = Reply::Ok {
                    id,
                    degraded: false,
                    latency_us,
                    payload: Json::object([
                        ("app", Json::String(app)),
                        ("key", Json::String(key)),
                        ("predicted", Json::Number(predicted)),
                        ("quality", Json::String(quality.to_owned())),
                        ("cached", Json::Bool(false)),
                    ]),
                };
                self.commit(reply, replies)
            }
            RequestKind::Observe {
                app,
                corunners,
                normalized,
            } => {
                let Some((index, pressures, key)) = context_for(&self.fleet, &app, &corunners)
                else {
                    return refuse(
                        self,
                        ErrorCode::UnknownApp,
                        format!("`{app}` (or a corunner) is not in the supervised fleet"),
                        replies,
                    );
                };
                if wait_us + OBSERVE_COST_US > budget_us {
                    return self.refuse_deadline(
                        id,
                        start_us,
                        budget_us,
                        wait_us + OBSERVE_COST_US,
                        replies,
                    );
                }
                let online = &mut self.fleet.apps_mut()[index].online;
                if let Err(e) = online.observe_for(&key, &pressures, normalized) {
                    return refuse(self, ErrorCode::Unavailable, e.to_string(), replies);
                }
                let observations = online.observations();
                self.cache.invalidate_app(&app);
                self.clock_us = start_us + OBSERVE_COST_US;
                self.counters.completed += 1;
                let latency_us = self.clock_us - pending.arrival_us;
                let reply = Reply::Ok {
                    id,
                    degraded: false,
                    latency_us,
                    payload: Json::object([
                        ("app", Json::String(app)),
                        ("key", Json::String(key)),
                        ("observations", Json::Number(observations as f64)),
                    ]),
                };
                self.commit(reply, replies)
            }
            RequestKind::Place { iterations } => {
                let cost_us = PLACE_BASE_COST_US + PLACE_PER_ITERATION_COST_US * iterations;
                if wait_us + cost_us > budget_us {
                    return self.refuse_deadline(
                        id,
                        start_us,
                        budget_us,
                        wait_us + cost_us,
                        replies,
                    );
                }
                let anneal_config = AnnealConfig {
                    iterations: iterations as usize,
                    seed: self
                        .config
                        .seed
                        .wrapping_add(pending.admitted.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    lanes: self.manager_config.search_lanes.max(1),
                    ..AnnealConfig::default()
                };
                // The manager's own objective, with every app live and no
                // crash suspicion, which a placement query has no business
                // pricing.
                let fleet = &self.fleet;
                let live = vec![true; fleet.apps().len()];
                let suspicion = vec![0.0; fleet.problem().hosts()];
                let result = match anneal(
                    fleet.problem(),
                    |_| FleetObjective::new(fleet, &live, &suspicion),
                    None,
                    &anneal_config,
                    &Tracer::disabled(),
                ) {
                    Ok(result) => result,
                    Err(e) => return refuse(self, ErrorCode::Unavailable, e.to_string(), replies),
                };
                self.clock_us = start_us + cost_us;
                self.counters.completed += 1;
                let latency_us = self.clock_us - pending.arrival_us;
                let reply = Reply::Ok {
                    id,
                    degraded: false,
                    latency_us,
                    payload: Json::object([
                        ("cost", Json::Number(result.cost)),
                        ("evaluations", Json::Number(result.evaluations as f64)),
                        ("best_iteration", Json::Number(result.best_iteration as f64)),
                    ]),
                };
                self.commit(reply, replies)
            }
            RequestKind::Tick => {
                if self.run.is_done(&self.manager_config) {
                    return refuse(
                        self,
                        ErrorCode::Unavailable,
                        "the supervised run has reached its horizon".into(),
                        replies,
                    );
                }
                if wait_us + TICK_COST_US > budget_us {
                    return self.refuse_deadline(
                        id,
                        start_us,
                        budget_us,
                        wait_us + TICK_COST_US,
                        replies,
                    );
                }
                if let Err(e) = self.run.step(
                    &mut self.testbed,
                    &mut self.fleet,
                    &self.manager_config,
                    &self.tracer,
                ) {
                    return refuse(self, ErrorCode::Unavailable, e.to_string(), replies);
                }
                self.clock_us = start_us + TICK_COST_US;
                self.counters.completed += 1;
                let latency_us = self.clock_us - pending.arrival_us;
                let reply = Reply::Ok {
                    id,
                    degraded: false,
                    latency_us,
                    payload: Json::object([
                        ("tick", Json::Number((self.run.next_tick() - 1) as f64)),
                        ("violation_s", Json::Number(self.run.violation_seconds())),
                    ]),
                };
                self.commit(reply, replies)
            }
            RequestKind::Status => {
                if wait_us + STATUS_COST_US > budget_us {
                    return self.refuse_deadline(
                        id,
                        start_us,
                        budget_us,
                        wait_us + STATUS_COST_US,
                        replies,
                    );
                }
                self.clock_us = start_us + STATUS_COST_US;
                self.counters.completed += 1;
                let latency_us = self.clock_us - pending.arrival_us;
                let reply = Reply::Ok {
                    id,
                    degraded: false,
                    latency_us,
                    payload: Json::object([
                        ("clock_us", Json::Number(self.clock_us as f64)),
                        ("queue_len", Json::Number(self.queue.len() as f64)),
                        ("backlog_us", Json::Number(self.queue.backlog_us() as f64)),
                        ("cache_entries", Json::Number(self.cache.len() as f64)),
                        ("committed", Json::Number(self.committed_total as f64)),
                        ("completed", Json::Number(self.counters.completed as f64)),
                        ("degraded", Json::Number(self.counters.degraded as f64)),
                        ("shed", Json::Number(self.counters.shed as f64)),
                        (
                            "deadline_exceeded",
                            Json::Number(self.counters.deadline_exceeded as f64),
                        ),
                        ("refused", Json::Number(self.counters.refused as f64)),
                        ("malformed", Json::Number(self.counters.malformed as f64)),
                        ("next_tick", Json::Number(self.run.next_tick() as f64)),
                    ]),
                };
                self.commit(reply, replies)
            }
            RequestKind::Shutdown => {
                self.shutting_down = true;
                self.clock_us = start_us + STATUS_COST_US;
                self.counters.completed += 1;
                let latency_us = self.clock_us - pending.arrival_us;
                let reply = Reply::Ok {
                    id,
                    degraded: false,
                    latency_us,
                    payload: Json::object([("draining", Json::Number(self.queue.len() as f64))]),
                };
                self.commit(reply, replies)
            }
        }
    }

    fn refuse_deadline(
        &mut self,
        id: String,
        start_us: u64,
        budget_us: u64,
        needed_us: u64,
        replies: &mut Vec<String>,
    ) -> Result<(), ServerError> {
        self.clock_us = start_us + REJECT_COST_US;
        self.counters.deadline_exceeded += 1;
        self.commit(
            Reply::DeadlineExceeded {
                id,
                budget_us,
                needed_us,
            },
            replies,
        )
    }

    /// Write-ahead commits a reply, then releases it: journal first
    /// (verified against recovered history during replay), client
    /// second.
    fn commit(&mut self, reply: Reply, replies: &mut Vec<String>) -> Result<(), ServerError> {
        let line = reply.to_line();
        match self.verify.pop_front() {
            Some(expected) => {
                if expected.reply_line != line {
                    return Err(ServerError::new(format!(
                        "replay diverged from the committed journal at seq {}: journal has \
                         {:?}, replay produced {:?}",
                        expected.seq, expected.reply_line, line
                    )));
                }
            }
            None => {
                if let Some(journal) = &mut self.journal {
                    journal.commit(&line)?;
                }
            }
        }
        self.committed_total += 1;
        self.commits_since_checkpoint += 1;
        replies.push(line);
        Ok(())
    }

    fn maybe_checkpoint(&mut self) -> Result<(), ServerError> {
        if self.replaying
            || self.config.checkpoint_every == 0
            || self.commits_since_checkpoint < self.config.checkpoint_every
            || !self.queue.is_empty()
        {
            return Ok(());
        }
        let Some(store) = &self.store else {
            return Ok(());
        };
        let snapshot = self.snapshot();
        store.save(icm_json::to_string(&snapshot).as_bytes())?;
        store.prune(self.config.keep_checkpoints)?;
        self.commits_since_checkpoint = 0;
        Ok(())
    }

    /// Captures the server's state. Meaningful only when the queue is
    /// empty (checkpoints are taken at quiescent commits); pending
    /// requests are deliberately not serialized — they were never
    /// acknowledged, and recovery re-feeds them from the intake log.
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            version: SERVER_SNAPSHOT_VERSION,
            config: self.config.clone(),
            world: WorldSnapshot {
                version: WORLD_SNAPSHOT_VERSION,
                testbed: self.testbed.snapshot(),
                config: self.manager_config.clone(),
                fleet: self.fleet.clone(),
                run: self.run.clone(),
                tracer: self.tracer.state(),
                rngs: Vec::new(),
                trace_path: None,
                trace_bytes: 0,
            },
            clock_us: self.clock_us,
            last_arrival_us: self.last_arrival_us,
            admit_stamp: self.admit_stamp,
            journal_seq: self.committed_total,
            intake_seq: self.intake_pos,
            cache: self.cache.entries().to_vec(),
            counters: self.counters.clone(),
            shutting_down: self.shutting_down,
        }
    }
}

fn estimate_cost(kind: &RequestKind) -> u64 {
    match kind {
        RequestKind::Predict { .. } => PREDICT_FULL_COST_US,
        RequestKind::Observe { .. } => OBSERVE_COST_US,
        RequestKind::Place { iterations } => {
            PLACE_BASE_COST_US + PLACE_PER_ITERATION_COST_US * iterations
        }
        RequestKind::Tick => TICK_COST_US,
        RequestKind::Status | RequestKind::Shutdown => STATUS_COST_US,
    }
}

/// Loads the newest checkpoint that passes both the store's integrity
/// checks and the snapshot format check, skipping damaged generations.
fn load_snapshot(store: &SnapshotStore) -> Result<Option<ServerSnapshot>, ServerError> {
    let mut generations = store.generations()?;
    generations.reverse();
    let mut failures = Vec::new();
    for generation in generations {
        let outcome = store
            .load(generation)
            .map_err(|e| e.to_string())
            .and_then(|bytes| String::from_utf8(bytes).map_err(|e| e.to_string()))
            .and_then(|text| ServerSnapshot::parse(&text).map_err(|e| e.to_string()));
        match outcome {
            Ok(snapshot) => return Ok(Some(snapshot)),
            Err(err) => failures.push(format!("generation {generation}: {err}")),
        }
    }
    if failures.is_empty() {
        Ok(None)
    } else {
        Err(ServerError::new(format!(
            "no usable checkpoint: {}",
            failures.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves one interactive `place` and returns its payload's
    /// `(cost bits, evaluations, best_iteration)`.
    fn place(server: &mut Server, id: &str, iterations: u64) -> (u64, u64, u64) {
        let line = format!(
            r#"{{"id":"{id}","kind":"place","iterations":{iterations},"deadline_ms":500}}"#
        );
        let replies = server
            .handle_frame(&Frame::Line(line))
            .expect("frame handled");
        assert_eq!(replies.len(), 1);
        let reply = icm_json::parse(&replies[0]).expect("reply parses");
        let payload = reply.get("payload").expect("ok reply has a payload");
        let num = |field| payload.get(field).and_then(Json::as_f64).expect(field);
        (
            num("cost").to_bits(),
            num("evaluations") as u64,
            num("best_iteration") as u64,
        )
    }

    /// `place` replies are part of the journal's byte-identity contract:
    /// the search's objective, seed derivation and lane merge may be
    /// refactored, but the cost bits, evaluation count and convergence
    /// point of a fixed query on the fast world must not move.
    #[test]
    fn place_replies_are_pinned_on_the_fast_world() {
        let mut config = ServerConfig::new(2016, true);
        config.sync = false;
        let mut server = Server::start(config, None).expect("starts");
        let short = place(&mut server, "p200", 200);
        let long = place(&mut server, "p400", 400);
        assert_eq!(short, (0x4081_070b_767b_7fd4, 402, 0));
        assert_eq!(long, (0x4081_070b_767b_7fd4, 802, 6));
    }
}
