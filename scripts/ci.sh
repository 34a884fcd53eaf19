#!/usr/bin/env bash
# Full CI gate: build, tests, formatting, lints.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

# Static-analysis gate (DESIGN.md §12): lock order, sequencer liveness,
# panic-free wire paths, atomics ordering, telemetry discipline. Fails
# on any unsuppressed finding — including drift between the code and
# analysis/metrics_manifest.toml (regenerate with
# `cargo run -p softcell-analyzer -- --write-metrics-manifest`). The
# binary is already built by the release build above, so this completes
# in well under 5 s.
echo "==> softcell-analyzer (static analysis gate)"
./target/release/softcell-analyzer --root .

# The southbound path's concurrency lives in four crates: the domain
# locks and queues and the seat every domain proposes on (controller),
# the serve loop and frame reader (ctlchan), and the channel and lock
# stand-ins under them. A lost wake-up or a lock held across a blocking
# send is a hang, not a red assert, so these suites run first, optimised
# and time-capped.
echo "==> controller / ctlchan / channel + lock shim suites (180 s cap)"
timeout 180 cargo test -q --release \
  -p softcell-controller -p softcell-ctlchan -p crossbeam -p parking_lot
# ... and so does the one in-repo caller that pipelines: four clients,
# 64 requests each in flight over up to 15 domains, one reply slot per
# client. A routing thread that waits on its own reply channel hangs it.
timeout 60 ./target/release/micro_controller_throughput --quick > /dev/null
# Thousands of back-to-back proposals straight on the seats of 1-, 2-
# and 4-seat clusters (every server is a one-seat membership; this is
# the one caller of larger ones outside the tests): a quorum regression
# there is a hang.
timeout 60 ./target/release/micro_replica --quick > /dev/null

echo "==> cargo test -q"
cargo test -q --workspace

# Fault-injection churn (fixed seed, so deterministic) under a hard
# wall-clock cap: a retry/reconnect regression shows up as a hang, and
# the timeout turns that hang into a failure instead of a stuck CI job.
# The wire drill ends by replaying the server seat's log through a
# fresh engine: same image, and every answer the agent kept.
echo "==> fault-injection churn (120 s cap)"
timeout 120 cargo test -q --release --test fault_churn

# Sharded-controller differential oracle + seeded interleavings, also
# time-capped: a ticket that is never handed on, or tags that are never
# published, is a deadlock, and the timeout surfaces it as a red build.
# With them, tests/input_replay.rs: seeded input logs replayed through
# `CentralController::apply` on a fresh engine give byte-identical
# outputs, rule ops and state (the oracle replays its reference's the
# same way).
echo "==> shard oracle + interleaving sweep + input replay (180 s cap)"
timeout 180 cargo test -q --release --test shard_oracle --test shard_interleave --test input_replay

# Replicated control-plane recovery drill: 3-controller cluster, each
# seat a ControllerServer whose agents reach it through its serve loop,
# the leader killed -9 mid-storm of moves (a detach and an attach each). Gate: survivors' logs match the
# pre-kill log byte-for-byte, zero residue after agent re-homing,
# recovery-time histogram exported; plus a seeded sweep of cut / heal /
# kill / fail-over schedules. Time-capped because a quorum or fail-over
# regression shows up as a stall.
echo "==> replicated recovery drill (180 s cap)"
timeout 180 cargo test -q --release --test recovery

# The performance yardstick (perf/, its own workspace and lock file, so
# the steps above never compile it): build it offline against the crates
# as they are now — its frozen surface must still compile — run its unit
# tests, and drive one short run each of fabric_forward (data plane),
# wire_flow_setup (ctlchan + controller::wire + server queue),
# metro_churn (controller::sharded + mobility, written to the data
# plane) and path_install_storm (cold Algorithm 1; a run fails if its
# rule, tag or swap counts differ between iterations). A correctness
# smoke, not a timing gate: a shared host cannot gate 2 s timings, but
# every operation of a run is verified, so a forwarding, flow-setup,
# sharded-engine or tag-selection bug fails here. `--locked`: perf/'s lock
# file is frozen with the harness, so a dependency edge changed in a crate
# it builds against fails here instead of silently rewriting that file.
echo "==> softcell-perf build + unit tests + fabric_forward / wire_flow_setup / metro_churn / path_install_storm smokes (300 s cap)"
timeout 300 cargo build --release --offline --locked -q \
  --manifest-path perf/Cargo.toml --target-dir target
timeout 300 cargo test --offline --locked -q \
  --manifest-path perf/Cargo.toml --target-dir target
for workload in fabric_forward wire_flow_setup metro_churn path_install_storm; do
  timeout 60 ./target/release/softcell-perf \
    --workload "$workload" --seed 7 --seconds 2 --trace 0 \
    | tail -n 1 > "/tmp/softcell-perf-$workload.json"
  python3 - "$workload" "/tmp/softcell-perf-$workload.json" <<'PY'
import json, sys
result = json.load(open(sys.argv[2]))
assert result["correct"] is True and result["failed"] == 0, result
print(f"perf smoke ok: {sys.argv[1]}: {result['attempted']} operations verified, 0 failed")
PY
done
# The walks themselves, as counts a shared host cannot move: a traced
# fabric_forward run on seed 7 must take 18.175 hops a round trip over
# fabric tables of at most 30 and a median of 4 rules. A flow-table
# scan that picked a different rule would change the walks.
timeout 60 ./target/release/softcell-perf \
  --workload fabric_forward --seed 7 --seconds 2 --trace 1 \
  | tail -n 1 > /tmp/softcell-perf-walks.json
python3 - /tmp/softcell-perf-walks.json <<'PY'
import json, sys
result = json.load(open(sys.argv[1]))
assert result["correct"] is True and result["failed"] == 0, result
want = {"sim.hops_per_round_trip": 18.175,
        "dataplane.table_rules_max": 30,
        "dataplane.table_rules_median": 4}
got = {name: result["metrics"][name]["value"] for name in want}
assert got == want, f"fabric_forward walks moved: {got}, want {want}"
print(f"fabric_forward walks ok: {got}")
PY
# And the fabric the write path builds: the seed-7 metro_churn smoke
# above must have left 913 rules over 7 tags (its policy paths' and
# the one mobility tag). Its flow tables are written by pushes and
# swap-removals and sorted only for lookups, so a write that lost or
# doubled a rule would move the count, and so would a per-UE mobility
# rule back in the core, a tunnel leg kept per station pair or per
# destination station instead of per station block, a mobility tag
# per station (tests/core_state.rs), or a last leg written as tag
# rules instead of left to the location stage (Type 3).
python3 - /tmp/softcell-perf-metro_churn.json <<'PY'
import json, sys
result = json.load(open(sys.argv[1]))
want = {"rules_total": 913, "tags_used": 7}
got = {name: result["metrics"][name]["value"] for name in want}
assert got == want, f"metro_churn fabric moved: {got}, want {want}"
print(f"metro_churn fabric ok: {got}")
PY
# Beside it, Algorithm 1 alone: the seed-7 path_install_storm smoke
# must have left 15 030 shadow rules over 123 tags. The downlink's last
# legs are Type 3 location entries shared by every tag (the parent of
# that stage left 67 864), so a last leg written once per tag again, a
# deferral refused, or a tag choice that moved shows here.
python3 - /tmp/softcell-perf-path_install_storm.json <<'PY'
import json, sys
result = json.load(open(sys.argv[1]))
want = {"rules_total": 15030, "tags_used": 123}
got = {name: result["metrics"][name]["value"] for name in want}
assert got == want, f"path_install_storm tables moved: {got}, want {want}"
print(f"path_install_storm tables ok: {got}")
PY

# Allocation budget of the mobility event path (tests/alloc_budget.rs):
# heap allocations of a UE's first handoff with 0 / 1 / 8 carried flows
# and of a second handoff with 8 that supersedes a live transition (the
# plan's vectors; the ops join the engine's one stream, planning buffers
# are reused), of collecting a tunnel (none), of agent tag-cache hits, of sharded cache-hit flows (a
# flow's entries inline in its outcome), of 16 handoff tickets on a
# 2-shard run beyond the engine's own handoffs (a ticket's ops go into
# the shard's one log), of
# routing a five-middlebox chain (one hop list), of 240 cold
# Algorithm 1 installs and of a topology clone (a shared handle: none),
# counted by a test-only global allocator on fixed scenarios. Counts repeat exactly, so unlike the timings above this
# *is* a gate on a shared host: a change that brings back a per-event
# compile, clone or regrowing vector fails it.
echo "==> allocation budget: handoff / second handoff / agent hit / sharded hit / handoff ticket / route / install / topology clone (60 s cap)"
timeout 60 cargo test -q --release --test alloc_budget

# Core switches hold no per-UE mobility state (tests/core_state.rs,
# paper §5.1): on paper(4), scripted and seeded random move chains —
# A→B→C→A, returns to an anchor, moves inside a live transition, shared
# tunnels, shortcuts, detaches, expiries — are checked after every step.
# No non-access switch holds a /32 rule but a shortcut's; the tunnel
# legs are exactly the blocks of the live per-destination trees, one
# next hop per (switch, station block, direction); the tag beside the
# policy paths' is the one mobility tag, held while any tunnel lives;
# and every live connection still round-trips through its middleboxes.
# A last scenario runs Figure 7's k = 8 network (1 280 stations) with
# 1 100 UEs moved at once: a tag per station ending a tunnel would run
# out of the 1 024 tags there and refuse moves.
echo "==> core switches hold no per-UE mobility state (60 s cap)"
timeout 60 cargo test -q --release --test core_state

# Figure 7's counts (tests/figure7_counts.rs): one k = 6, 60-clause point
# of the §6.3 sweep must give exactly its median, max, total rules, tags
# and swap rules, and every one of its 32 400 paths must still deliver
# through the finished tables, the location stage included. Algorithm
# 1's speed-ups must not move a rule. ROADMAP
# item 1's one re-baseline (a round trip planned as one, the swap
# junction in its own slot) is used up: a change that moves these counts
# now needs a reason of its own and re-runs Figure 7 and the ablation.
# With it, tests/multi_clause.rs: on paper(4), every combination of four
# clauses whose chains are prefixes of one another keeps each station's
# paths apart, through a second round trip after all installs.
echo "==> Figure 7 counts + multi-clause paths (60 s cap)"
timeout 60 cargo test -q --release --test figure7_counts --test multi_clause

# Layout budget (tests/layout_budget.rs): size and alignment of the
# values the data-plane write path copies — the 16-byte FiveTuple, the
# 48-byte microflow bucket, FlowRule, Match, RuleOp, FlowRecord,
# EventOutcome and the FlowInstalls it holds inline. Numbers again, so a
# gate: a field that brings back an odd-sized key (and the
# store-forwarding stall with it) fails here.
echo "==> layout budget: hot-path value sizes (60 s cap)"
timeout 60 cargo test -q --release --test layout_budget

# Sharded packet-in throughput smoke: 4 domains must beat a single
# domain by at least 1.5x (the acceptance floor is 2x on multicore; the
# smoke bar is lower so a loaded 1-core CI box still passes honestly).
# The same run exports telemetry AND a causal trace, gating the
# observability substrate: the JSON must parse and carry real counts,
# and the trace must be a valid Chrome trace_event file whose spans are
# well nested with at least one trace crossing the wire boundary
# (wire_rtt and serve_frame under one trace id).
echo "==> sharded throughput smoke + telemetry/trace export (120 s cap)"
timeout 120 cargo run --release -q -p softcell-bench --bin tab2_agent_throughput -- \
  --quick --shards 4 --min-speedup 1.5 --telemetry /tmp/softcell-telemetry.json \
  --trace /tmp/softcell-trace.json
python3 scripts/check_trace.py /tmp/softcell-trace.json

# Wide-domain smoke: the same ControllerServer run with 16 front-end
# domains, the domain locks and queues at their widest, all proposing on
# the one seat, whose lock is the engine's: fences of different domains
# must still overlap while proposals take turns.
echo "==> 16-domain server smoke (120 s cap)"
timeout 120 cargo run --release -q -p softcell-bench --bin tab2_agent_throughput -- \
  --quick --shards 16 --min-speedup 1.5

# Metro scenario campaign (DESIGN.md §14): a reduced regression matrix
# — plain diurnal day, flash crowd, gateway flap (whose recovery runs the
# §3.2 offline pass), controller kill -9 — at 10k modeled UEs over the
# compressed virtual day. Deterministic (fixed seed), so
# any violation is replayable from the coordinates in the report. The
# gate is zero violations AND live per-scenario telemetry; time-capped
# because a stuck drain or drill is a hang, not a red assert.
echo "==> metro scenario campaign smoke (240 s cap)"
timeout 240 ./target/release/metro_campaign \
  --ues 10000 --scenarios diurnal,flash-crowd,gateway-flap,controller-kill \
  --report /tmp/softcell-scenario.json \
  --telemetry /tmp/softcell-scenario-telemetry.json \
  --trace /tmp/softcell-scenario-trace.json
python3 scripts/check_trace.py /tmp/softcell-scenario-trace.json
python3 - /tmp/softcell-scenario.json /tmp/softcell-scenario-telemetry.json <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
names = [s["scenario"] for s in report["scenarios"]]
assert names == ["diurnal", "flash-crowd", "gateway-flap", "controller-kill"], names
for s in report["scenarios"]:
    assert s["violations"] == [], \
        f"{s['scenario']}: violations {s['violations']}"
    assert s["micro"]["attaches"] > 0 and s["micro"]["round_trips"] > 0, \
        f"{s['scenario']}: cohort tier idle"
    q = s["quiesce"]
    assert all(v == 0 for v in q.values()), f"{s['scenario']}: residue {q}"
assert report["scenarios"][3]["overlay"]["drills_converged"] == 1, \
    "controller-kill drill did not converge"
snap = json.load(open(sys.argv[2]))
counters = {(c["name"], c["label"]): c["value"] for c in snap["counters"]}
for name in names:
    ev = counters.get(("softcell_scenario_events_total", f"scenario={name}"), 0)
    pr = counters.get(("softcell_scenario_probe_runs_total", f"scenario={name}"), 0)
    assert ev > 0 and pr > 0, \
        f"scenario {name}: telemetry dead (events={ev}, probes={pr})"
print(f"scenario campaign ok: {', '.join(names)} clean, telemetry live")
PY

echo "==> telemetry snapshot sanity"
python3 - /tmp/softcell-telemetry.json <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
counters = {(c["name"], c["label"]): c["value"] for c in snap["counters"]}
total = sum(v for (n, _), v in counters.items()
            if n == "softcell_controller_packet_in_total")
assert total > 0, "packet_in_total is zero: instrumentation dead"
for shard in range(4):
    served = counters.get(("softcell_controller_shard_served_total",
                           f"shard={shard}"), 0)
    assert served > 0, f"shard {shard} served nothing: per-shard counters dead"
names = {n for n, _ in counters}
assert any(n.startswith("softcell_ctlchan_frames_") for n in names), \
    "ctlchan frame counters missing from export"
hists = {h["name"]: h for h in snap["histograms"]}
lat = hists["softcell_controller_packet_in_latency_ns"]
assert lat["count"] > 0 and lat["p99"] >= lat["p50"] > 0, \
    f"packet-in latency histogram broken: {lat}"
print(f"telemetry ok: packet_in_total={total}, "
      f"p50={lat['p50']}ns p99={lat['p99']}ns")
PY

# Configuration-space gate: the workspace builds and configures one
# way — the way every gate above ran it. A cargo feature, an environment
# switch in non-test code, or a bench target under crates/ is a
# configuration no test, campaign or softcell-perf workload sees.
echo "==> configuration-space gate (features / env switches / benches under crates/)"
if grep -n '^\[features\]' crates/*/Cargo.toml; then echo "cargo feature under crates/"; exit 1; fi
if awk '/#\[cfg\(test\)\]/ { nextfile } /env::var/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit !bad }' $(find crates/*/src -name '*.rs'); then echo "environment switch in non-test code"; exit 1; fi
if find crates -type d -name benches | grep .; then echo "bench target under crates/"; exit 1; fi

echo "==> cargo fmt --check"
cargo fmt --check

# Curated lint set (DESIGN.md §12): -D warnings everywhere including
# tests and benches, plus dbg!/todo! denied workspace-wide, plus
# unwrap_used denied in the non-test code of the three crates whose
# panics would take down the control plane (ctlchan, controller, and
# topology, which every engine holds).
echo "==> cargo clippy --workspace --all-targets (curated deny set)"
cargo clippy --workspace --all-targets -- \
  -D warnings -D clippy::dbg_macro -D clippy::todo

echo "==> cargo clippy -p softcell-ctlchan -p softcell-controller -p softcell-topology (deny unwrap_used)"
cargo clippy --no-deps -p softcell-ctlchan -p softcell-controller -p softcell-topology -- \
  -D warnings -D clippy::unwrap_used -D clippy::dbg_macro -D clippy::todo

echo "==> CI green"
