#!/usr/bin/env bash
# Tier-1 gate plus lint gates. Everything runs offline: the registry
# stand-ins under vendor/ are wired through [patch.crates-io] and
# .cargo/config.toml pins cargo to offline mode.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> game + core tests with every CGBA iteration checked against the rescan oracle"
cargo test -q --release -p eotora-game -p eotora-core --features eotora-game/naive-check

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> EXPERIMENTS.md commands (every cited figures flag, one --quick run; budget 30 s)"
# Each `figures -- --<flag>` that EXPERIMENTS.md cites runs once here under
# --quick, so a renamed or removed flag fails CI. The run takes ~4 s on a
# 2-core host; over 30 s fails the step.
mapfile -t FIG_FLAGS < <(grep -o 'figures -- --[a-z0-9-]*' EXPERIMENTS.md | sed 's/^figures -- //' | sort -u)
if [ "${#FIG_FLAGS[@]}" -eq 0 ]; then echo "FAIL: EXPERIMENTS.md cites no figures command"; exit 1; fi
fig_start=$SECONDS
./target/release/figures --quick "${FIG_FLAGS[@]}" > /dev/null
fig_elapsed=$((SECONDS - fig_start))
if [ "$fig_elapsed" -gt 30 ]; then
  echo "FAIL: figures --quick ${FIG_FLAGS[*]} took ${fig_elapsed} s > 30 s"; exit 1
fi
echo "OK: figures --quick ${FIG_FLAGS[*]} ran in ${fig_elapsed} s"

echo "==> slot_solve bench smoke (quick mode)"
# The guards below read only this run's file: a bench binary that writes
# its JSON elsewhere (the path is fixed at compile time) fails them.
rm -f target/BENCH_slot_solve.quick.json
EOTORA_QUICK=1 cargo bench -p eotora-bench --bench slot_solve

echo "==> slot_solve regression guard (engine p50 speedup >= 2.0x at 30 devices)"
awk '
  /"devices":/ { dev = $2; gsub(/[^0-9]/, "", dev) }
  /"p50_speedup":/ && dev == 30 {
    val = $2; gsub(/[^0-9.]/, "", val); found = 1
    if (val + 0 < 2.0) {
      printf "FAIL: engine p50 speedup %.2fx < 2.0x at 30 devices\n", val
      exit 1
    }
    printf "OK: engine p50 speedup %.2fx at 30 devices\n", val
  }
  END { if (!found) { print "FAIL: no 30-device row in quick bench output"; exit 1 } }
' target/BENCH_slot_solve.quick.json

echo "==> shard identity guard (sharded arm bit-identical, plan non-trivial)"
awk '
  /"shard_scales":/ { in_shards = 1 }
  in_shards && /"shards_used":/ {
    val = $2; gsub(/[^0-9]/, "", val); found = 1
    if (val + 0 < 2) {
      printf "FAIL: sharded bench row used %d shard(s); island plan collapsed\n", val
      exit 1
    }
    printf "OK: sharded bench row solved %d shards (identity asserted in-bench)\n", val
  }
  END { if (!found) { print "FAIL: no shard_scales row in quick bench output"; exit 1 } }
' target/BENCH_slot_solve.quick.json

echo "==> shard speedup guard (>= 2x at 10k devices, skipped under 4 workers)"
# Reads the committed full-scale bench artifact: the 2x bar only means
# something with real parallelism, so boxes under 4 workers just report.
awk '
  /"shard_scales":/ { in_shards = 1 }
  in_shards && /"devices":/ { dev = $2; gsub(/[^0-9]/, "", dev) }
  in_shards && /"workers":/ { workers = $2; gsub(/[^0-9]/, "", workers) }
  in_shards && /"shard_speedup":/ && dev == 10000 {
    val = $2; gsub(/[^0-9.]/, "", val); found = 1
    if (workers + 0 < 4) {
      printf "SKIP: shard speedup %.2fx at 10k devices recorded on %d worker(s)\n", val, workers
      next
    }
    if (val + 0 < 2.0) {
      printf "FAIL: shard speedup %.2fx < 2x at 10k devices on %d workers\n", val, workers
      exit 1
    }
    printf "OK: shard speedup %.2fx at 10k devices on %d workers\n", val, workers
  }
  END { if (!found) { print "FAIL: no 10k shard row in BENCH_slot_solve.json"; exit 1 } }
' BENCH_slot_solve.json

echo "==> journal overhead guard (slot journaling <= 5% of engine p50 at 30 devices)"
awk '
  /"devices":/ { dev = $2; gsub(/[^0-9]/, "", dev) }
  /"journal_overhead_pct":/ && dev == 30 {
    val = $2; gsub(/[^0-9.]/, "", val); found = 1
    if (val + 0 > 5.0) {
      printf "FAIL: journal overhead %.2f%% > 5%% of engine p50 at 30 devices\n", val
      exit 1
    }
    printf "OK: journal overhead %.2f%% of engine p50 at 30 devices\n", val
  }
  END { if (!found) { print "FAIL: no 30-device journal row in quick bench output"; exit 1 } }
' target/BENCH_slot_solve.quick.json

echo "==> live telemetry overhead guard (obs hot path <= 2% of engine p50 at 30 devices)"
awk '
  /"devices":/ { dev = $2; gsub(/[^0-9]/, "", dev) }
  /"live_overhead_pct":/ && dev == 30 {
    val = $2; gsub(/[^0-9.]/, "", val); found = 1
    if (val + 0 > 2.0) {
      printf "FAIL: live telemetry overhead %.2f%% > 2%% of engine p50 at 30 devices\n", val
      exit 1
    }
    printf "OK: live telemetry overhead %.2f%% of engine p50 at 30 devices\n", val
  }
  END { if (!found) { print "FAIL: no 30-device live row in quick bench output"; exit 1 } }
' target/BENCH_slot_solve.quick.json

echo "==> chaos smoke (seeded fault trace through the robust engine)"
# Short scripted trace: a server crash, a fronthaul flap, and a corrupt-state
# burst over 40 slots. Gate: the run completes (zero panics), every fault
# class fires, and the virtual queue stays bounded. The release binary was
# built by the first step.
CHAOS_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR"' EXIT
./target/release/eotora template --devices 10 --seed 11 \
  | sed 's/"horizon": [0-9]*/"horizon": 40/' > "$CHAOS_DIR/scenario.json"
cat > "$CHAOS_DIR/faults.json" <<'EOF'
{"events": [
  {"slot": 5,  "action": {"ServerDown": {"server": 1}}},
  {"slot": 10, "action": {"LinkDown": {"station": 0, "server": 3}}},
  {"slot": 14, "action": {"CorruptState": {"slots": 3}}},
  {"slot": 20, "action": {"ServerUp": {"server": 1}}},
  {"slot": 24, "action": {"LinkUp": {"station": 0, "server": 3}}}
]}
EOF
./target/release/eotora run "$CHAOS_DIR/scenario.json" \
  --fault-trace "$CHAOS_DIR/faults.json" --slot-deadline-ms 250 \
  --out "$CHAOS_DIR/result.json" > "$CHAOS_DIR/summary.txt"
cat "$CHAOS_DIR/summary.txt"
python3 - "$CHAOS_DIR/result.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
c = r["counters"]
assert len(r["latency"]["values"]) == 40, "chaos run did not complete 40 slots"
assert all(v > 0 and v == v for v in r["latency"]["values"]), "non-finite slot latency"
assert c.get("fault.masked_resources", 0) > 0, "masking never fired"
assert c.get("fault.state_substitutions", 0) > 0, "sanitizer never fired"
assert max(r["queue"]["values"]) < 50.0, "virtual queue wound up"
print("OK: chaos smoke — 40 slots, masking + sanitization fired, queue bounded")
EOF

echo "==> telemetry smoke (metrics snapshots, exposition, health, forced postmortem)"
# A 100-slot run snapshotting its live registry every 10 slots, the same run
# exported as a Prometheus exposition, `eotora health` on both, and a
# sanitizer-off corrupt-state run that must escalate the robust ladder and
# dump a valid flight-recorder postmortem.
TEL_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR" "$TEL_DIR"' EXIT
./target/release/eotora template --devices 8 --seed 31 \
  | sed 's/"horizon": [0-9]*/"horizon": 100/' > "$TEL_DIR/scenario.json"
./target/release/eotora run "$TEL_DIR/scenario.json" \
  --metrics-out "$TEL_DIR/metrics.jsonl" --metrics-every 10 > "$TEL_DIR/clean.txt"
grep -q "^health: ok" "$TEL_DIR/clean.txt"
./target/release/eotora run "$TEL_DIR/scenario.json" \
  --metrics-out "$TEL_DIR/metrics.prom" > /dev/null
./target/release/eotora health "$TEL_DIR/metrics.jsonl" | grep -q "overall ok"
./target/release/eotora health "$TEL_DIR/metrics.prom" | grep -q "overall ok"
python3 - "$TEL_DIR/metrics.jsonl" "$TEL_DIR/metrics.prom" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert len(lines) == 11, f"expected 11 snapshots (10 periodic + final), got {len(lines)}"
assert lines[-1]["counters"]["slots"] == 100, "final snapshot missed slots"
assert all("deltas" in l for l in lines), "snapshot lines are missing deltas"
prom = open(sys.argv[2]).read().splitlines()
samples = [l for l in prom if l and not l.startswith("#")]
assert all(len(l.rsplit(" ", 1)) == 2 for l in samples), "malformed exposition sample"
assert any(l.startswith("eotora_slots_total 100") for l in samples), "slots counter missing"
assert any("_bucket{le=" in l for l in samples), "no histogram buckets in exposition"
print("OK: metrics snapshots + exposition well-formed")
EOF
cat > "$TEL_DIR/faults.json" <<'EOF'
{"events": [{"slot": 5, "action": {"CorruptState": {"slots": 25}}}]}
EOF
./target/release/eotora run "$TEL_DIR/scenario.json" \
  --fault-trace "$TEL_DIR/faults.json" --no-sanitize \
  --metrics-out "$TEL_DIR/faulted.jsonl" --metrics-every 10 > "$TEL_DIR/faulted.txt"
grep -q "postmortems" "$TEL_DIR/faulted.txt"
./target/release/eotora health "$TEL_DIR/faulted.jsonl" | grep -q "worst critical"
python3 - "$TEL_DIR" <<'EOF'
import glob, json, sys
dumps = glob.glob(sys.argv[1] + "/flight-slot*.jsonl")
assert dumps, "no flight-recorder postmortems dumped"
for path in dumps:
    for line in open(path):
        rec = json.loads(line)
        assert {"seq", "t_ns", "type"} <= rec.keys(), f"bad postmortem line in {path}"
print(f"OK: forced escalation dumped {len(dumps)} valid postmortem(s)")
EOF
# The same faulted run traced: its NaN floats are written as `null`, and
# `eotora trace` must still read every line and all 100 slots.
./target/release/eotora run "$TEL_DIR/scenario.json" \
  --fault-trace "$TEL_DIR/faults.json" --no-sanitize \
  --trace "$TEL_DIR/faulted-trace.jsonl" > /dev/null
./target/release/eotora trace "$TEL_DIR/faulted-trace.jsonl" > "$TEL_DIR/trace.txt" 2> "$TEL_DIR/trace.err"
if [ -s "$TEL_DIR/trace.err" ]; then cat "$TEL_DIR/trace.err"; echo "FAIL: eotora trace warned on a faulted trace"; exit 1; fi
grep -q "faulted-trace.jsonl: [0-9]* events over 100 slots" "$TEL_DIR/trace.txt"
echo "OK: faulted trace reads back whole (100 slots, no malformed lines)"

echo "==> durability smoke (kill at slot 57, resume, bit-for-bit CSV diff)"
# A 100-slot run checkpointed every 10 slots is killed mid-flight at slot 57
# and resumed from its checkpoint directory. Gate: the resumed run's per-slot
# CSV matches the uninterrupted reference exactly once wall-clock columns
# (solve_time_s, stage_*_s) and the durability.* counter columns are dropped,
# and its header is the reference's, every stage_* and ctr_* name included,
# followed by exactly the durability.* counters only a resumed run has.
DUR_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR" "$TEL_DIR" "$DUR_DIR"' EXIT
./target/release/eotora template --devices 8 --seed 23 \
  | sed 's/"horizon": [0-9]*/"horizon": 100/' > "$DUR_DIR/scenario.json"
./target/release/eotora run "$DUR_DIR/scenario.json" --csv "$DUR_DIR/ref" > /dev/null
./target/release/eotora run "$DUR_DIR/scenario.json" \
  --checkpoint-dir "$DUR_DIR/ckpt" --checkpoint-every 10 --kill-at-slot 57 \
  | grep -q "interrupted after slot 57"
# Snapshots land on a writer thread; the kill hook waits for the one in
# flight, so the killed run leaves the slot-50 snapshot and no temp file.
if [ -e "$DUR_DIR/ckpt/snapshot.tmp" ]; then echo "FAIL: the killed run left snapshot.tmp"; exit 1; fi
python3 - "$DUR_DIR/ckpt/snapshot.bin" <<'EOF'
import json, struct, sys
data = open(sys.argv[1], "rb").read()
assert data[:8] == b"EOTSNAP\0", "snapshot.bin has no snapshot header"
(schema_len,) = struct.unpack_from("<I", data, 12)
payload = json.loads(data[16 + schema_len + 12:])
assert payload["slots"] == 50, f"killed at 57, the snapshot claims {payload['slots']} slots, expected 50"
EOF
./target/release/eotora run --resume "$DUR_DIR/ckpt" --csv "$DUR_DIR/resumed" > /dev/null
python3 - "$DUR_DIR/ref_slots.csv" "$DUR_DIR/resumed_slots.csv" <<'EOF'
import sys

def decisions(path):
    rows = [line.rstrip("\n").split(",") for line in open(sys.argv[1] if path == "ref" else sys.argv[2])]
    header = rows[0]
    keep = [
        i
        for i, name in enumerate(header)
        if name != "solve_time_s"
        and not name.startswith("stage_")
        and not name.startswith("ctr_durability.")
    ]
    return [[row[i] for i in keep] for row in rows]

ref, resumed = decisions("ref"), decisions("resumed")
assert len(ref) == 101, f"reference CSV has {len(ref) - 1} slots, expected 100"
assert ref == resumed, "resumed run diverged from the uninterrupted reference"
ref_header = open(sys.argv[1]).readline().rstrip("\n").split(",")
resumed_header = open(sys.argv[2]).readline().rstrip("\n").split(",")
durable = [name for name in resumed_header if name.startswith("ctr_durability.")]
assert resumed_header == ref_header + durable, (
    f"resumed header {resumed_header} is not the reference's {ref_header} plus durability counters"
)
assert durable == [
    "ctr_durability.frames_discarded",
    "ctr_durability.frames_journaled",
    "ctr_durability.resumed_slots",
    "ctr_durability.snapshots_written",
], f"unexpected durability columns {durable}"
assert any(name.startswith("stage_") for name in ref_header), "no stage columns to compare"
print("OK: durability smoke — kill at 57, resume, 100 slots bit-identical")
EOF

echo "==> shard smoke (island fleet, --shards auto vs sequential, bit-for-bit CSV diff)"
# A 500-device, 8-island scale-out scenario run twice: the sequential
# engine and the sharded engine (`--shards auto`). The island resource
# graph is separable, so the decision series must match exactly once
# wall-clock columns are dropped.
SHARD_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR" "$TEL_DIR" "$DUR_DIR" "$SHARD_DIR"' EXIT
./target/release/eotora template --devices 500 --islands 8 --seed 41 \
  | sed 's/"horizon": [0-9]*/"horizon": 12/' > "$SHARD_DIR/scenario.json"
./target/release/eotora run "$SHARD_DIR/scenario.json" --csv "$SHARD_DIR/seq" > /dev/null
./target/release/eotora run "$SHARD_DIR/scenario.json" --shards auto \
  --csv "$SHARD_DIR/sharded" --out "$SHARD_DIR/sharded.json" > /dev/null
python3 - "$SHARD_DIR/seq_slots.csv" "$SHARD_DIR/sharded_slots.csv" "$SHARD_DIR/sharded.json" <<'EOF'
import json, sys

def decisions(path):
    rows = [line.rstrip("\n").split(",") for line in open(path)]
    header = rows[0]
    keep = [
        i
        for i, name in enumerate(header)
        if name != "solve_time_s"
        and not name.startswith("stage_")
        and not name.startswith("ctr_shard.")
    ]
    return [[row[i] for i in keep] for row in rows]

seq, sharded = decisions(sys.argv[1]), decisions(sys.argv[2])
assert len(seq) == 13, f"sequential CSV has {len(seq) - 1} slots, expected 12"
assert seq == sharded, "sharded run diverged from the sequential engine"
counters = json.load(open(sys.argv[3]))["counters"]
solves = counters.get("shard.solves", 0)
assert solves > 0, "sharded run never entered the sharded solver"
print(f"OK: shard smoke — 12 slots bit-identical, {solves} shard solves")
EOF

echo "==> server smoke (daemon stream vs batch, hot-reload, SIGTERM + restart, bit-for-bit)"
# A 200-slot state stream fed to the daemon through a FIFO. Mid-stream it
# gets a garbage hot-reload (must reject, old config stays live), a good
# one (must apply), then SIGTERM after slot 120 (graceful: snapshot at the
# exact cursor). The restart resends the full stream — the solved prefix
# coalesces — and the concatenated decision records must match the batch
# engine's CSV bit for bit with zero duplicate slots.
SRV_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR" "$TEL_DIR" "$DUR_DIR" "$SHARD_DIR" "$SRV_DIR"' EXIT
./target/release/eotora template --devices 8 --seed 53 \
  | sed 's/"horizon": [0-9]*/"horizon": 200/' > "$SRV_DIR/scenario.json"
./target/release/eotora run "$SRV_DIR/scenario.json" --csv "$SRV_DIR/ref" > /dev/null
./target/release/eotora states "$SRV_DIR/scenario.json" --slots 200 > "$SRV_DIR/states.jsonl"
cat > "$SRV_DIR/server.toml" <<EOF
[scenario]
path = "$SRV_DIR/scenario.json"
[admission]
capacity = 64
policy = "block"
[durability]
dir = "$SRV_DIR/ckpt"
checkpoint_every = 10
fsync = "os"
EOF
sed 's/capacity = 64/capacity = 96/' "$SRV_DIR/server.toml" > "$SRV_DIR/good.toml"
echo "definitely = not = toml" > "$SRV_DIR/garbage.toml"
{
  head -n 10 "$SRV_DIR/states.jsonl"
  printf '{"control": "reload", "path": "%s"}\n' "$SRV_DIR/garbage.toml"
  printf '{"control": "reload", "path": "%s"}\n' "$SRV_DIR/good.toml"
  sed -n '11,120p' "$SRV_DIR/states.jsonl"
} > "$SRV_DIR/phase1.jsonl"
mkfifo "$SRV_DIR/input.pipe"
./target/release/eotora serve --config "$SRV_DIR/server.toml" \
  --input "$SRV_DIR/input.pipe" > "$SRV_DIR/dec1.jsonl" 2> "$SRV_DIR/ev1.log" &
SRV_PID=$!
sleep 300 > "$SRV_DIR/input.pipe" &  # hold the write end open past the payload
HOLD_PID=$!
cat "$SRV_DIR/phase1.jsonl" > "$SRV_DIR/input.pipe"
reached=0
for _ in $(seq 1 600); do
  if [ "$(wc -l < "$SRV_DIR/dec1.jsonl")" -ge 120 ]; then reached=1; break; fi
  sleep 0.1
done
if [ "$reached" != 1 ]; then echo "FAIL: server never reached slot 120"; exit 1; fi
kill -TERM "$SRV_PID"
wait "$SRV_PID"
kill "$HOLD_PID" 2> /dev/null || true
if [ -e "$SRV_DIR/ckpt/snapshot.tmp" ]; then echo "FAIL: SIGTERM left snapshot.tmp"; exit 1; fi
grep -q '"event":"reload_rejected"' "$SRV_DIR/ev1.log"
grep -q '"event":"reload_applied"' "$SRV_DIR/ev1.log"
./target/release/eotora serve --config "$SRV_DIR/server.toml" \
  --input "$SRV_DIR/states.jsonl" > "$SRV_DIR/dec2.jsonl" 2> "$SRV_DIR/ev2.log"
grep -q '"resumed_at_slot":120' "$SRV_DIR/ev2.log"
python3 - "$SRV_DIR/ref_slots.csv" "$SRV_DIR/dec1.jsonl" "$SRV_DIR/dec2.jsonl" <<'EOF'
import json, sys
rows = [l.rstrip("\n").split(",") for l in open(sys.argv[1])]
idx = {name: i for i, name in enumerate(rows[0])}
ref = {int(r[idx["slot"]]): r for r in rows[1:]}
records = {}
for path in sys.argv[2:4]:
    for line in open(path):
        rec = json.loads(line)
        assert rec["slot"] not in records, f"duplicate slot {rec['slot']} after graceful restart"
        records[rec["slot"]] = rec
assert len(records) == 200, f"decision streams cover {len(records)} slots, expected 200"
for s, rec in sorted(records.items()):
    for col in ("latency_s", "cost_usd", "queue", "price", "bdma_rounds"):
        got, want = float(rec[col]), float(ref[s][idx[col]])
        assert got == want, f"slot {s} {col}: server {got} != batch {want}"
print("OK: server smoke — 200 slots bit-identical across hot-reload + SIGTERM + restart")
EOF

echo "==> federation smoke (3 regions, 200 slots, lossy link + 40-slot partition)"
# A 3-region federation over a seeded faulty peer link: drops, duplication,
# delay, reordering, and a full partition of region 2 for slots 80..120.
# Gates: the run completes (zero panics), the degradation ladder fires and
# heals, the fleet time-average cost stays within 2% of the shared budget
# and within 5% of a single global controller's, and a clean-link Fixed
# federation is decision-identical to N independent fixed-share runs.
FED_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR" "$TEL_DIR" "$DUR_DIR" "$SHARD_DIR" "$SRV_DIR" "$FED_DIR"' EXIT
cat > "$FED_DIR/trace.json" <<'EOF'
{"seed": 11, "drop_prob": 0.25, "dup_prob": 0.1, "delay_prob": 0.2,
 "max_delay_slots": 3, "reorder_prob": 0.2,
 "partitions": [{"from_slot": 80, "to_slot": 120, "regions": [2]}]}
EOF
./target/release/eotora federate --regions 3 --devices 24 --horizon 200 \
  --sync-every 10 --seed 11 --link-faults "$FED_DIR/trace.json" \
  --out "$FED_DIR/fed.json" > "$FED_DIR/fed.txt"
cat "$FED_DIR/fed.txt"
./target/release/eotora template --devices 24 --seed 11 \
  | sed 's/"horizon": [0-9]*/"horizon": 200/' > "$FED_DIR/global.json"
./target/release/eotora run "$FED_DIR/global.json" --out "$FED_DIR/globalres.json" > /dev/null
python3 - "$FED_DIR/fed.json" "$FED_DIR/globalres.json" <<'EOF'
import json, sys
fed = json.load(open(sys.argv[1]))
glob = json.load(open(sys.argv[2]))
budget = fed["config"]["total_budget"]
cost = fed["fleet_average_cost"]
assert cost <= 1.02 * budget, f"fleet cost {cost:.4f} > 2% over budget {budget:.4f}"
assert glob["average_cost"] <= 1.02 * budget, "global baseline blew the budget"
assert cost <= glob["average_cost"] + 0.05 * budget, (
    f"federated cost {cost:.4f} more than 5% of budget above global "
    f"{glob['average_cost']:.4f}"
)
for i, region in enumerate(fed["regions"]):
    values = region["latency"]["values"]
    assert len(values) == 200, f"region {i} completed {len(values)} slots, expected 200"
    assert all(v > 0 and v == v for v in values), f"region {i}: non-finite slot latency"
c = fed["counters"]
assert c.get("fed.partitions", 0) > 0, "partition window never tripped the ladder"
assert c.get("fed.stale_epochs", 0) > 0, "no stale epochs under a 40-slot partition"
assert c.get("fed.gossip_dropped", 0) > 0, "lossy link never dropped a frame"
assert c.get("fed.budget_rebalances", 0) > 0, "shares never rebalanced"
share_sum = sum(fed["final_shares"])
assert share_sum <= 1.0 + 1e-9, f"final shares sum to {share_sum} > 1"
print(
    f"OK: federation smoke — fleet cost {cost:.4f} <= 1.02x budget, "
    f"{c['fed.partitions']} partition transition(s), "
    f"{c['fed.stale_epochs']} stale epoch(s) healed"
)
EOF
./target/release/eotora federate --regions 3 --devices 24 --horizon 200 \
  --sync-every 10 --seed 11 --policy fixed --csv-dir "$FED_DIR/fed-csv" > /dev/null
./target/release/eotora federate --regions 3 --devices 24 --horizon 200 \
  --sync-every 10 --seed 11 --policy fixed --standalone \
  --csv-dir "$FED_DIR/solo-csv" > /dev/null
python3 - "$FED_DIR" <<'EOF'
import csv, sys

def decisions(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    header = rows[0]
    keep = [
        i
        for i, name in enumerate(header)
        if name != "solve_time_s"
        and not name.startswith("stage_")
        and not name.startswith("ctr_fed.")
    ]
    return [[row[i] for i in keep] for row in rows]

for i in range(3):
    fed = decisions(f"{sys.argv[1]}/fed-csv/region-{i}.csv")
    solo = decisions(f"{sys.argv[1]}/solo-csv/region-{i}.csv")
    assert len(fed) == 201, f"region {i} CSV has {len(fed) - 1} slots, expected 200"
    assert fed == solo, f"region {i}: clean-link federation diverged from fixed-share run"
print("OK: clean-link Fixed federation decision-identical to independent fixed-share runs")
EOF

echo "==> trace tee smoke (--trace + --fault-trace + --metrics-out vs untraced, bit-for-bit; unknown flags and bad engine options refused)"
# A robust run whose live telemetry session and JSONL trace share one tee
# sink. Gates: `eotora trace` reads every line of the trace, both sinks saw
# all 60 slots, and the per-slot CSV matches the same flags without
# --trace once the wall-clock columns (solve_time_s, stage_*_s) are dropped.
TEE_DIR="$(mktemp -d)"
trap 'rm -rf "$CHAOS_DIR" "$TEL_DIR" "$DUR_DIR" "$SHARD_DIR" "$SRV_DIR" "$FED_DIR" "$TEE_DIR"' EXIT
./target/release/eotora template --devices 8 --seed 29 \
  | sed 's/"horizon": [0-9]*/"horizon": 60/' > "$TEE_DIR/scenario.json"
cat > "$TEE_DIR/faults.json" <<'EOF'
{"events": [
  {"slot": 8,  "action": {"ServerDown": {"server": 1}}},
  {"slot": 15, "action": {"CorruptState": {"slots": 4}}},
  {"slot": 30, "action": {"ServerUp": {"server": 1}}}
]}
EOF
./target/release/eotora run "$TEE_DIR/scenario.json" --fault-trace "$TEE_DIR/faults.json" \
  --metrics-out "$TEE_DIR/untraced.jsonl" --csv "$TEE_DIR/untraced" > /dev/null
./target/release/eotora run "$TEE_DIR/scenario.json" --fault-trace "$TEE_DIR/faults.json" \
  --metrics-out "$TEE_DIR/traced.jsonl" --trace "$TEE_DIR/run.jsonl" \
  --csv "$TEE_DIR/traced" > /dev/null
# An unknown flag must fail the run and be named, not silently ignored.
if ./target/release/eotora run "$TEE_DIR/scenario.json" --speculate > /dev/null 2> "$TEE_DIR/unknown.err" \
  || ! grep -q -- "--speculate" "$TEE_DIR/unknown.err"; then echo "FAIL: --speculate was not refused by name"; exit 1; fi
# So must a misspelled flag of any other subcommand, and robust mode on a
# baseline solver, which cannot mask faults: its error names the solver.
if ./target/release/eotora template --devcies 5 > /dev/null 2> "$TEE_DIR/unknown.err" \
  || ! grep -q -- "--devcies" "$TEE_DIR/unknown.err"; then echo "FAIL: --devcies was not refused by name"; exit 1; fi
if ./target/release/eotora federate --regoins 3 > /dev/null 2> "$TEE_DIR/unknown.err" \
  || ! grep -q -- "--regoins" "$TEE_DIR/unknown.err"; then echo "FAIL: --regoins was not refused by name"; exit 1; fi
python3 -c 'import json, sys; s = json.load(open(sys.argv[1])); s["dpp"]["solver"] = "Ropt"; json.dump(s, open(sys.argv[2], "w"))' \
  "$TEE_DIR/scenario.json" "$TEE_DIR/ropt.json"
if ./target/release/eotora run "$TEE_DIR/ropt.json" --slot-deadline-ms 5 > /dev/null 2> "$TEE_DIR/unknown.err" \
  || ! grep -q "ROPT" "$TEE_DIR/unknown.err"; then echo "FAIL: robust mode accepted a ROPT scenario"; exit 1; fi
# Engine options are refused by name, never ignored: a knob without what it
# configures, a zero deadline, and a cadence or fsync policy on a resumed run
# (whose manifest fixes them).
refused_by_name() {  # usage: refused_by_name FLAG COMMAND...
  local flag="$1"; shift
  if "$@" > /dev/null 2> "$TEE_DIR/refused.err" || ! grep -q -- "$flag" "$TEE_DIR/refused.err"; then
    echo "FAIL: \`${*:2}\` was not refused naming $flag"; exit 1
  fi
}
refused_by_name --checkpoint-every ./target/release/eotora run "$TEE_DIR/scenario.json" \
  --kill-at-slot 3 --checkpoint-every 5 --fsync always
refused_by_name --metrics-every ./target/release/eotora run "$TEE_DIR/scenario.json" --metrics-every 5
refused_by_name --slot-deadline-ms ./target/release/eotora run "$TEE_DIR/scenario.json" \
  --slot-deadline-ms 0
./target/release/eotora run "$TEE_DIR/scenario.json" --checkpoint-dir "$TEE_DIR/ck" \
  --kill-at-slot 10 > /dev/null
refused_by_name --checkpoint-every ./target/release/eotora run --resume "$TEE_DIR/ck" \
  --checkpoint-every 2
refused_by_name --fsync ./target/release/eotora run --resume "$TEE_DIR/ck" --fsync os
# A resumed federation keeps the cadence and fsync policy it was started with.
./target/release/eotora federate --regions 2 --devices 6 --horizon 20 --checkpoint-dir "$TEE_DIR/fk" \
  --checkpoint-every 4 --fsync every-slot --kill-at-slot 6 > /dev/null
refused_by_name --checkpoint-every ./target/release/eotora federate --resume "$TEE_DIR/fk" \
  --checkpoint-every 2
./target/release/eotora federate --resume "$TEE_DIR/fk" > /dev/null
python3 - "$TEE_DIR/fk" <<'EOF'
import glob, json, sys
manifests = sorted(glob.glob(sys.argv[1] + "/region-*/manifest.json"))
assert len(manifests) == 2, f"expected 2 region manifests, found {len(manifests)}"
for path in manifests:
    m = json.load(open(path))
    assert (m["checkpoint_every"], m["fsync"]) == (4, "every-slot"), f"{path}: resume rewrote {m}"
print("OK: bad engine options refused by name; federate --resume kept cadence 4, fsync every-slot")
EOF
# A reader that closes stdout early ends the command quietly: exit 0, no stderr.
set +e
./target/release/eotora template --devices 3 2> "$TEE_DIR/pipe.err" | head -1 > /dev/null
pipe_status=${PIPESTATUS[0]}
set -e
if [ "$pipe_status" -ne 0 ] || [ -s "$TEE_DIR/pipe.err" ]; then
  cat "$TEE_DIR/pipe.err"; echo "FAIL: template | head -1 exited $pipe_status"; exit 1
fi
./target/release/eotora trace "$TEE_DIR/run.jsonl" > "$TEE_DIR/trace.txt" 2> "$TEE_DIR/trace.err"
grep -q "run.jsonl: [0-9]* events over 60 slots" "$TEE_DIR/trace.txt"
if [ -s "$TEE_DIR/trace.err" ]; then cat "$TEE_DIR/trace.err"; exit 1; fi
python3 - "$TEE_DIR" <<'EOF'
import json, sys

def decisions(path):
    rows = [line.rstrip("\n").split(",") for line in open(path)]
    header = rows[0]
    keep = [
        i
        for i, name in enumerate(header)
        if name != "solve_time_s" and not name.startswith("stage_")
    ]
    return [[row[i] for i in keep] for row in rows]

d = sys.argv[1]
untraced, traced = decisions(f"{d}/untraced_slots.csv"), decisions(f"{d}/traced_slots.csv")
assert len(untraced) == 61, f"untraced CSV has {len(untraced) - 1} slots, expected 60"
assert untraced == traced, "the trace/telemetry tee perturbed the run"
assert "ctr_fault.state_substitutions" in traced[0], "fault counters missing from CSV"
final = [json.loads(l) for l in open(f"{d}/traced.jsonl")][-1]
assert final["counters"]["slots"] == 60, "telemetry half of the tee missed slots"
print("OK: trace tee smoke — 60 slots bit-identical with and without --trace")
EOF

echo "ci: all green"
