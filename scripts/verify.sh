#!/usr/bin/env sh
# Tier-1 verification gate (see ROADMAP.md).
#
# The workspace is hermetic: every dependency is an in-tree path crate,
# so --offline both works and *enforces* that no crates.io dependency
# sneaks back in — a registry fetch attempt fails the build outright.
set -eu
cd "$(dirname "$0")/.."

cargo build --workspace --release --offline
cargo test -q --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo fmt --check

# Layer-bench smoke: the savestate encode bench must run to completion,
# so a bench that panics fails the gate. Its timing is not checked.
cargo bench -p icm-bench --bench snapshot --offline -- snapshot/encode

# Report-pipeline smoke: two same-seed traced mini-runs must diff clean,
# summarize as JSON, and render into a non-empty self-contained report.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
./target/release/icm-experiments fig2 fig3 --fast --quiet \
    --trace "$SMOKE/a.jsonl" --results "$SMOKE/results.json" \
    --profile "$SMOKE/profile.json" > /dev/null
./target/release/icm-experiments fig2 fig3 --fast --quiet \
    --trace "$SMOKE/b.jsonl" > /dev/null
./target/release/icm-trace diff "$SMOKE/a.jsonl" "$SMOKE/b.jsonl"
./target/release/icm-trace summarize "$SMOKE/a.jsonl" --json > /dev/null
./target/release/icm-report "$SMOKE/results.json" --profile "$SMOKE/profile.json" \
    --out "$SMOKE/report.html" --text > /dev/null
test -s "$SMOKE/report.html"
echo "verify: report smoke OK"

# Shared-study smoke: `table6 fig12` render from one EC2 study run,
# while `fig13` ahead of `fig2` runs it on its own. Every id must still
# export the JSON and print the table a single-id run of it does.
./target/release/icm-experiments fig13 fig2 table6 fig12 --fast --quiet \
    --json "$SMOKE/shared" > "$SMOKE/shared.txt"
: > "$SMOKE/single.txt"
for id in fig13 fig2 table6 fig12; do
    ./target/release/icm-experiments "$id" --fast --quiet \
        --json "$SMOKE/single" >> "$SMOKE/single.txt"
    cmp "$SMOKE/shared/$id.json" "$SMOKE/single/$id.json" \
        || { echo "verify: $id from a shared study diverged from its single-id run" >&2; exit 1; }
done
cmp "$SMOKE/shared.txt" "$SMOKE/single.txt" \
    || { echo "verify: shared-study tables diverged from single-id runs" >&2; exit 1; }
echo "verify: shared-study smoke OK"

# Scheduling-determinism smoke: studies run concurrently on helper
# threads and render in selection order, so two same-seed runs of the
# fast suite must match byte for byte — results document, stdout, trace
# and every per-id JSON export. A result that depends on thread timing
# fails here. Each run writes under its own directory by the same
# relative paths, because the trace records the export paths.
EXPERIMENTS="$PWD/target/release/icm-experiments"
for run in a b; do
    mkdir "$SMOKE/sched-$run"
    (cd "$SMOKE/sched-$run" && "$EXPERIMENTS" all --fast --quiet \
        --trace trace.jsonl --results results.json --json json > stdout.txt)
done
for file in results.json stdout.txt trace.jsonl; do
    cmp "$SMOKE/sched-a/$file" "$SMOKE/sched-b/$file" \
        || { echo "verify: same-seed suite runs diverged in $file" >&2; exit 1; }
done
EXPORTS=$(ls "$SMOKE/sched-a/json" | wc -l)
test "$EXPORTS" -eq 32 \
    || { echo "verify: the suite exported $EXPORTS of 32 ids" >&2; exit 1; }
for file in "$SMOKE"/sched-a/json/*.json; do
    cmp "$file" "$SMOKE/sched-b/json/${file##*/}" \
        || { echo "verify: same-seed exports of ${file##*/} diverged" >&2; exit 1; }
done
echo "verify: scheduling-determinism smoke OK"

# Fault-injection smoke: the robustness sweep injects probe failures,
# stragglers and corrupted measurements — two same-seed faulty runs must
# still write byte-identical traces, and the sweep must render under the
# strict (fail-on-Fail-verdict) report gate.
./target/release/icm-experiments robustness --fast --quiet \
    --trace "$SMOKE/fault-a.jsonl" --results "$SMOKE/robustness.json" > /dev/null
./target/release/icm-experiments robustness --fast --quiet \
    --trace "$SMOKE/fault-b.jsonl" > /dev/null
./target/release/icm-trace diff "$SMOKE/fault-a.jsonl" "$SMOKE/fault-b.jsonl"
./target/release/icm-report "$SMOKE/robustness.json" --strict \
    --out "$SMOKE/robustness.html" > /dev/null
test -s "$SMOKE/robustness.html"
echo "verify: fault-injection smoke OK"

# Recovery smoke: the self-healing runtime supervises scripted crash and
# drift scenarios — two same-seed managed sweeps must write byte-identical
# traces, the trace summary must show supervisory actions, and the sweep
# must pass the strict report gate (managed ≤ unmanaged violation time).
./target/release/icm-experiments recovery --fast --quiet \
    --trace "$SMOKE/recovery-a.jsonl" --results "$SMOKE/recovery.json" > /dev/null
./target/release/icm-experiments recovery --fast --quiet \
    --trace "$SMOKE/recovery-b.jsonl" > /dev/null
./target/release/icm-trace diff "$SMOKE/recovery-a.jsonl" "$SMOKE/recovery-b.jsonl"
# Anneal-determinism smoke: every search the manager launches runs the
# default two parallel lanes, and the same-seed byte-identical diff
# above proves the lane merge is deterministic — but only if the lanes
# actually ran. Check the serialized span-start marker.
grep -q '"lanes":2' "$SMOKE/recovery-a.jsonl" \
    || { echo "verify: no lane-parallel anneal spans in the recovery trace" >&2; exit 1; }
./target/release/icm-trace summarize "$SMOKE/recovery-a.jsonl" \
    | grep -q "action migrate" \
    || { echo "verify: no manager actions in the recovery trace" >&2; exit 1; }
./target/release/icm-report "$SMOKE/recovery.json" --strict \
    --out "$SMOKE/recovery.html" > /dev/null
test -s "$SMOKE/recovery.html"
echo "verify: recovery smoke OK"

# Telemetry smoke: the same recovery sweep with streaming telemetry
# teed alongside the trace must leave the raw trace byte-identical,
# write a parseable health artifact under the fixed byte budget that a
# second same-seed run reproduces byte-for-byte, and feed both the
# flamegraph reconstruction and the strict report gate.
./target/release/icm-experiments recovery --fast --quiet \
    --trace "$SMOKE/tel-a.jsonl" --telemetry "$SMOKE/tel-a.json" > /dev/null
./target/release/icm-experiments recovery --fast --quiet \
    --telemetry "$SMOKE/tel-b.json" > /dev/null
./target/release/icm-trace diff "$SMOKE/recovery-a.jsonl" "$SMOKE/tel-a.jsonl"
cmp "$SMOKE/tel-a.json" "$SMOKE/tel-b.json" \
    || { echo "verify: same-seed telemetry artifacts diverged" >&2; exit 1; }
TEL_BYTES=$(wc -c < "$SMOKE/tel-a.json")
test "$TEL_BYTES" -le 262144 \
    || { echo "verify: telemetry artifact is $TEL_BYTES bytes, over budget" >&2; exit 1; }
grep -q '"snapshots"' "$SMOKE/tel-a.json" \
    || { echo "verify: no health snapshots in the telemetry artifact" >&2; exit 1; }
./target/release/icm-trace flame "$SMOKE/tel-a.jsonl" > /dev/null
./target/release/icm-report "$SMOKE/recovery.json" --strict \
    --telemetry "$SMOKE/tel-a.json" --flame "$SMOKE/tel-a.jsonl" \
    --out "$SMOKE/telemetry.html" > /dev/null
test -s "$SMOKE/telemetry.html"
echo "verify: telemetry smoke OK"

# Provenance smoke: every manager action in the recovery trace must
# explain to a complete causal chain that closes with an outcome line,
# the explanation must be byte-identical across the two same-seed
# traces, and the violation attribution must render.
./target/release/icm-trace explain "$SMOKE/recovery-a.jsonl" --action 0 \
    > "$SMOKE/explain-a.txt"
grep -q "outcome" "$SMOKE/explain-a.txt" \
    || { echo "verify: action 0 chain has no outcome hop" >&2; exit 1; }
./target/release/icm-trace explain "$SMOKE/recovery-b.jsonl" --action 0 \
    > "$SMOKE/explain-b.txt"
cmp "$SMOKE/explain-a.txt" "$SMOKE/explain-b.txt" \
    || { echo "verify: same-seed explanations diverged" >&2; exit 1; }
./target/release/icm-trace explain "$SMOKE/recovery-a.jsonl" --violations \
    | grep -q "attributed" \
    || { echo "verify: violation attribution did not render" >&2; exit 1; }
echo "verify: provenance smoke OK"

# Kill-and-resume smoke: a checkpointed endurance run is aborted
# mid-flight (--kill-after: no flushes, no destructors — a SIGKILL
# stand-in), then resumed from the newest good snapshot generation.
# The resumed run's event trace and results document must be
# byte-identical to an uninterrupted same-seed checkpointed run's.
./target/release/icm-experiments endurance --fast --quiet \
    --checkpoint-every 2 --checkpoint-dir "$SMOKE/ref-ckpt" \
    --trace "$SMOKE/endure-ref.jsonl" --results "$SMOKE/endure-ref.json" > /dev/null
if ./target/release/icm-experiments endurance --fast --quiet \
    --checkpoint-every 2 --checkpoint-dir "$SMOKE/kill-ckpt" \
    --kill-after 5 --trace "$SMOKE/endure-kill.jsonl" > /dev/null 2>&1; then
    echo "verify: --kill-after did not kill the run" >&2; exit 1
fi
test -s "$SMOKE/kill-ckpt/gen-000002.icmsnap" \
    || { echo "verify: the killed run left no second checkpoint generation" >&2; exit 1; }
./target/release/icm-experiments --resume "$SMOKE/kill-ckpt" --fast --quiet \
    --checkpoint-every 2 --checkpoint-dir "$SMOKE/kill-ckpt" \
    --trace "$SMOKE/endure-kill.jsonl" --results "$SMOKE/endure-kill.json" > /dev/null
cmp "$SMOKE/endure-ref.jsonl" "$SMOKE/endure-kill.jsonl" \
    || { echo "verify: resumed trace diverged from the uninterrupted run" >&2; exit 1; }
cmp "$SMOKE/endure-ref.json" "$SMOKE/endure-kill.json" \
    || { echo "verify: resumed results diverged from the uninterrupted run" >&2; exit 1; }
echo "verify: kill-and-resume smoke OK"
# A replay of action 0 needs a starting point: explain must name the
# newest checkpoint generation that precedes the action's tick.
./target/release/icm-trace explain "$SMOKE/endure-ref.jsonl" --action 0 \
    --checkpoint-dir "$SMOKE/ref-ckpt" | grep -q "checkpoint: gen-" \
    || { echo "verify: explain did not name a resume checkpoint" >&2; exit 1; }
echo "verify: checkpoint naming smoke OK"

# Serve smoke: the placement daemon works a scripted mix (timed
# requests, a malformed line, a deliberate overload burst), is killed
# with SIGABRT mid-stream (--kill-after-commits: no flushes, no
# destructors), and is restarted on the same state directory. Every
# acknowledged (journaled) reply must survive the kill byte-for-byte,
# the recovered journal must equal an uninterrupted same-script run's,
# and a same-seed rerun must be byte-identical end to end.
{
    printf '%s\n' \
        '{"id":"w1","kind":"predict","app":"M.milc","corunners":["H.KM"],"at_ms":100,"deadline_ms":500}' \
        '{"id":"o1","kind":"observe","app":"M.milc","corunners":["H.KM"],"normalized":1.4,"at_ms":140,"deadline_ms":500}' \
        'this is not a request' \
        '{"id":"a1","kind":"place","iterations":200,"at_ms":200,"deadline_ms":500}'
    i=0
    while [ "$i" -lt 12 ]; do
        printf '{"id":"b%d","kind":"predict","app":"H.KM","corunners":["M.milc"],"priority":%d,"at_ms":400,"deadline_ms":60}\n' \
            "$i" $((i % 4))
        i=$((i + 1))
    done
    printf '%s\n' \
        '{"id":"s1","kind":"status","at_ms":900,"deadline_ms":500}' \
        '{"id":"w2","kind":"predict","app":"M.milc","corunners":["H.KM"],"at_ms":1000,"deadline_ms":500}' \
        '{"id":"t1","kind":"tick","at_ms":1100,"deadline_ms":120000}' \
        '{"id":"s2","kind":"status","at_ms":1300,"deadline_ms":500}'
} > "$SMOKE/serve-script.jsonl"
./target/release/icm-server --fast --state "$SMOKE/ref-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
grep -q '"status":"overloaded"' "$SMOKE/ref-serve/journal.log" \
    || { echo "verify: the burst shed nothing" >&2; exit 1; }
grep -q '"status":"error"' "$SMOKE/ref-serve/journal.log" \
    || { echo "verify: the malformed line got no typed error" >&2; exit 1; }
if ./target/release/icm-server --fast --state "$SMOKE/kill-serve" --checkpoint-every 6 \
    --kill-after-commits 9 --input "$SMOKE/serve-script.jsonl" --quiet \
    > /dev/null 2>&1; then
    echo "verify: --kill-after-commits did not kill the daemon" >&2; exit 1
fi
test -s "$SMOKE/kill-serve/journal.log" \
    || { echo "verify: the killed daemon journaled nothing" >&2; exit 1; }
cp "$SMOKE/kill-serve/journal.log" "$SMOKE/pre-kill-journal.log"
./target/release/icm-server --fast --state "$SMOKE/kill-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
head -c "$(wc -c < "$SMOKE/pre-kill-journal.log")" "$SMOKE/kill-serve/journal.log" \
    | cmp - "$SMOKE/pre-kill-journal.log" \
    || { echo "verify: acknowledged replies were lost across the kill" >&2; exit 1; }
cmp "$SMOKE/ref-serve/journal.log" "$SMOKE/kill-serve/journal.log" \
    || { echo "verify: recovered journal diverged from the uninterrupted run" >&2; exit 1; }
./target/release/icm-server --fast --state "$SMOKE/rerun-serve" --checkpoint-every 6 \
    --input "$SMOKE/serve-script.jsonl" --quiet > /dev/null
cmp "$SMOKE/ref-serve/journal.log" "$SMOKE/rerun-serve/journal.log" \
    || { echo "verify: same-seed serve reruns diverged" >&2; exit 1; }
echo "verify: serve smoke OK"
