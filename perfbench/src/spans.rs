//! In-memory span recorder for the traced run.
//!
//! The benchmark records one span around each call it makes into a
//! layer of the program; nothing inside the program is instrumented. A
//! span holds its name, start, end, the span it was opened under, and a
//! request id shared by every span of one unit of work (a tick, a
//! daemon request, a study). Spans stay in memory until the run ends,
//! then [`Spans::write`] dumps them as tab-separated lines that
//! `run.py` folds into self times and coverage.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    req: u64,
    /// 1-based index of the enclosing span; 0 for a root span.
    parent: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. A disabled recorder runs the timed closures and
/// records nothing, so untraced runs pay one branch per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    recs: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.recs.len();
        let parent = self.open.last().map_or(0, |&open| open + 1);
        let start_ns = self.now_ns();
        self.recs.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.recs[index].end_ns = self.now_ns();
        out
    }

    /// Writes `id parent req name start_ns end_ns` lines, ids 1-based.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.recs.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
