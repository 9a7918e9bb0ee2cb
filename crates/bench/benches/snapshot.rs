//! Savestate benchmarks: the cost of checkpointing a full endurance
//! world to disk and of rebuilding one from the serialized payload.
//!
//! `snapshot/save` measures capture + serialize + crash-safe write
//! (the atomic tmp-write/fsync/rename path every checkpoint takes);
//! `snapshot/restore` measures parse + world reconstruction from the
//! same payload. `snapshot/encode` measures serialization alone — no
//! capture, no I/O — of the world stepped to the end of its horizon,
//! where the savestate is largest.

use icm_bench::{black_box, Bench};
use icm_experiments::endurance::World;
use icm_experiments::ExpConfig;
use icm_json::fs::atomic_write;
use icm_obs::Tracer;

fn main() {
    let mut b = Bench::from_args();

    let cfg = ExpConfig {
        seed: 2016,
        fast: true,
    };
    let tracer = Tracer::disabled();
    let mut world = World::new(&cfg, &tracer).expect("world builds");
    // Advance a few ticks so the snapshot carries real history (noise
    // position, online-model corrections, provenance records).
    for _ in 0..3 {
        world.step(&tracer).expect("steps");
    }

    let dir = std::env::temp_dir().join("icm-bench-snapshot");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("world.icmsnap");

    b.bench("snapshot/save", || {
        let text = world.snapshot(&tracer, None, 0).to_text();
        atomic_write(&path, text.as_bytes()).expect("writes");
        black_box(text.len())
    });

    let text = world.snapshot(&tracer, None, 0).to_text();
    b.bench("snapshot/restore", || {
        let snapshot =
            icm_manager::snapshot::WorldSnapshot::parse(black_box(&text)).expect("parses");
        World::restore(snapshot, &tracer).expect("restores")
    });

    while !world.run.is_done(&world.config) {
        world.step(&tracer).expect("steps");
    }
    let last = world.snapshot(&tracer, None, 0);
    b.bench("snapshot/encode", || black_box(&last).to_text());

    let _ = std::fs::remove_dir_all(&dir);
}
