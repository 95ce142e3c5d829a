#!/bin/sh
# CI gate: build + tests (tier 1, which also regenerates every fast
# registry figure in-process against results/, double-runs the seeded
# fault/quant/tail smoke sweeps and the gate-accuracy oracle, and checks
# EXPERIMENTS.md's marked tables), the wire-layout goldens, every
# committed figure (fig_tail included) regenerated byte-for-byte by
# `fig --all` in release, the benchmark package
# (ledger/) built and tested the way the benchmark builds it and its
# serve oracle run traced on a seed no change was written against, lint at
# deny level (including the clippy::perf group, denied workspace-wide via
# [workspace.lints]), a serve smoke: a real
# `overlapd` on an ephemeral port, concurrent loadgen clients verifying
# byte-identity against direct pipeline runs, then a SIGTERM drain that
# must leave no torn disk-cache entries, a fleet smoke: four `overlapd`
# nodes on one consistent-hash ring, loadgen through the router with
# cluster-wide dedup, SIGKILL of one node with zero failed responses,
# and a deterministic fleet-summary double-run, plus a seeded
# strategy-autotune smoke whose leaderboard must be deterministic. Run
# from the repository root.
#
#   sh scripts/ci.sh
#
# Wall-clock performance is the benchmark's (BENCHMARK.json ->
# ledger/run.sh): nothing here gates on a timing.
set -eu

echo "==> cargo build --release"
cargo build --release

# Part of tier 1 too, but run first and by name: a wire-layout drift must
# be reported as that, not as the cache or serve failure it causes.
echo "==> wire goldens: every wire type's bytes, both directions"
cargo test -q --test wire_golden

# Tier 1: `default-members` makes the bare command cover the root
# package and every member crate, unit tests and doctests included.
echo "==> cargo test -q"
cargo test -q

# Byte-identity of the committed results is the invariant every
# refactor leans on. Tier 1 regenerates every fast figure in-process;
# this also covers fig_tail, whose full sweep is seconds only in release.
echo "==> committed figures regenerate byte-identically (fig --all)"
cargo run --release -q -p overlap-bench --bin fig -- --all >/dev/null
git diff --exit-code -- results/ || {
    echo "FAIL: a regenerated figure differs from the committed results/"; exit 1;
}

# The benchmark (BENCHMARK.json -> ledger/run.sh) is a workspace of its
# own that compiles these crates from source: a rename that breaks it
# must fail here, not in the benchmark pipeline.
echo "==> ledger: build + test what the benchmark builds"
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test --release --offline --manifest-path ledger/Cargo.toml

# The serve oracle, on a seed no change was written against: every reply
# of a traced serve_hot run — loop-thread replays included — must be
# byte-identical to in-process `exec::execute`, and the staged exec
# replay must still sum to `execute` (exec.rs has not moved under it).
echo "==> ledger: traced serve_hot on seed 2 (oracle + waterfall)"
line=$(bash ledger/run.sh --workload serve_hot --seed 2 --seconds 20 --trace 1 | tail -n 1)
case "$line" in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "FAIL: serve_hot is not correct with 0 failed ops:"; printf '%s\n' "$line"; exit 1 ;;
esac

# The faulted engine, on a seed no change was written against: every
# draw must stay at or above the fault-free makespan and a repeated
# seed must return identical samples.
echo "==> ledger: traced tail_draws on seed 2 (repeat identity + fault-free floor)"
line=$(bash ledger/run.sh --workload tail_draws --seed 2 --seconds 20 --trace 1 | tail -n 1)
case "$line" in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "FAIL: tail_draws is not correct with 0 failed ops:"; printf '%s\n' "$line"; exit 1 ;;
esac

# ledger/ calls five simulate* functions by name; everything else spells
# the request as a `Simulation`. They may appear only where they are
# defined and re-exported, and the seven deleted spellings nowhere.
# (`simulate` alone is also an English word: only its call form counts.)
echo "==> simulate* names: five kept for ledger/ only, seven gone"
kept='simulate_order|simulate_order_with|simulate_order_faulted_with|simulate_order_tail_with'
gone='simulate_faulted|simulate_order_faulted|simulate_order_repeated|simulate_order_repeated_with|simulate_order_repeated_faulted|simulate_order_repeated_faulted_with|simulate_order_tail'
stray=$(grep -rnE "\<($kept)\>|\<simulate\(" crates src tests examples \
    | grep -vE '^crates/sim/src/(engine|lib)\.rs:' || true)
dead=$(grep -rnwE "$gone" crates src tests examples || true)
if [ -n "$stray$dead" ]; then
    echo "FAIL: simulate* spellings outside crates/sim/src/{engine,lib}.rs (or deleted ones anywhere):"
    printf '%s\n' "$stray" "$dead"
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> artifact-cache disk tier: second run of a driver must be all hits"
cache_dir=".overlap-cache-ci.$$"
rm -rf "$cache_dir"
OVERLAP_CACHE_DIR="$cache_dir" cargo run --release -q -p overlap-bench --bin fig -- inference >/dev/null
warm_out=$(OVERLAP_CACHE_DIR="$cache_dir" cargo run --release -q -p overlap-bench --bin fig -- inference)
rm -rf "$cache_dir"
echo "$warm_out" | grep "^cache:" || { echo "FAIL: warm run printed no cache stats"; exit 1; }
case "$warm_out" in
    *"misses=0"*) ;;
    *) echo "FAIL: second run missed the on-disk artifact cache"; exit 1 ;;
esac

echo "==> serve smoke: overlapd + loadgen, byte-identical, dedup, clean drain"
port_file=".overlapd-ci-port.$$"
serve_cache=".overlap-serve-ci.$$"
serve_log=".overlapd-ci-log.$$"
rm -rf "$port_file" "$serve_cache" "$serve_log"
cargo run --release -q -p overlap-bench --bin overlapd -- \
    --addr 127.0.0.1:0 --workers 8 --queue-depth 32 \
    --port-file "$port_file" --cache-dir "$serve_cache" 2>"$serve_log" &
overlapd_pid=$!
tries=0
while [ ! -s "$port_file" ]; do
    tries=$((tries + 1))
    [ "$tries" -le 300 ] || { echo "FAIL: overlapd never wrote its port file"; cat "$serve_log"; exit 1; }
    kill -0 "$overlapd_pid" 2>/dev/null || { echo "FAIL: overlapd died during startup"; cat "$serve_log"; exit 1; }
    sleep 0.1
done
addr="127.0.0.1:$(cat "$port_file")"
# Every client walks every model twice — the first round compiles
# (disk+memory cold), the second must be all cache hits; every response
# must be byte-identical to a direct pipeline run, and the pipeline must
# run at most once per model (single-flight dedup).
cargo run --release -q -p overlap-bench --bin overlap-client -- "$addr" \
    loadgen --clients 8 --models GPT_32B,GPT_64B,GPT_128B --repeat 2 --expect-dedup || {
    echo "FAIL: serve loadgen"; kill "$overlapd_pid" 2>/dev/null; cat "$serve_log"; exit 1;
}
# Pipelined run against the warm daemon: each connection keeps 4
# requests in flight; responses must still arrive in request order and
# stay byte-identical (the client checks both).
cargo run --release -q -p overlap-bench --bin overlap-client -- "$addr" \
    loadgen --clients 8 --models GPT_32B,GPT_64B,GPT_128B --repeat 2 --pipeline 4 || {
    echo "FAIL: pipelined serve loadgen"; kill "$overlapd_pid" 2>/dev/null; cat "$serve_log"; exit 1;
}
kill -TERM "$overlapd_pid"
wait "$overlapd_pid" || { echo "FAIL: overlapd exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -q "drained cleanly" "$serve_log" || {
    echo "FAIL: overlapd did not report a clean drain"; cat "$serve_log"; exit 1;
}
if ls "$serve_cache"/*.tmp >/dev/null 2>&1; then
    echo "FAIL: torn artifact-cache entries left behind by the drain"; exit 1
fi
rm -rf "$port_file" "$serve_cache" "$serve_log"

echo "==> fleet smoke: 4 overlapd nodes, sharded routing, SIGKILL failover, clean drain"
# Fixed $$-derived ports: every member must know the full address list
# before binding, so ephemeral ports cannot work here.
fleet_base=$((21000 + $$ % 20000))
fleet_models="GPT_32B,GPT_64B,GPT_128B"

# launch_fleet BASE_PORT SUFFIX: starts 4 daemons on BASE_PORT..+3 with
# fresh caches and waits until every one has written its port file.
# Sets $fleet_addrs and $fleet_pids (index-ordered).
launch_fleet() {
    fleet_addrs=""
    for i in 0 1 2 3; do
        fleet_addrs="$fleet_addrs${fleet_addrs:+,}127.0.0.1:$(($1 + i))"
    done
    fleet_pids=""
    for i in 0 1 2 3; do
        rm -rf ".overlap-fleet-$2-cache.$$.$i" ".overlap-fleet-$2-port.$$.$i"
        cargo run --release -q -p overlap-bench --bin overlapd -- \
            --addr "127.0.0.1:$(($1 + i))" --workers 4 --queue-depth 32 \
            --port-file ".overlap-fleet-$2-port.$$.$i" \
            --cache-dir ".overlap-fleet-$2-cache.$$.$i" \
            --fleet-node "$i" --fleet-peers "$fleet_addrs" \
            2>".overlap-fleet-$2-log.$$.$i" &
        fleet_pids="$fleet_pids $!"
    done
    for i in 0 1 2 3; do
        tries=0
        while [ ! -s ".overlap-fleet-$2-port.$$.$i" ]; do
            tries=$((tries + 1))
            if [ "$tries" -gt 300 ]; then
                echo "FAIL: fleet node $i never came up"
                cat ".overlap-fleet-$2-log.$$.$i"
                kill $fleet_pids 2>/dev/null || true
                exit 1
            fi
            for p in $fleet_pids; do
                kill -0 "$p" 2>/dev/null || {
                    echo "FAIL: a fleet daemon died during startup"
                    cat ".overlap-fleet-$2-log.$$."*
                    kill $fleet_pids 2>/dev/null || true
                    exit 1
                }
            done
            sleep 0.1
        done
    done
}

launch_fleet "$fleet_base" a
# Cold pass through the router: every response byte-identical to a
# direct pipeline run, each model compiled on exactly one node
# cluster-wide (--expect-dedup), and the race-invariant summary saved
# for the determinism comparison below.
cargo run --release -q -p overlap-bench --bin overlap-client -- "$fleet_addrs" \
    loadgen --clients 4 --models "$fleet_models" --repeat 2 --expect-dedup \
    --fleet-summary results/fleet_summary.json || {
    echo "FAIL: fleet loadgen (cold)"; cat ".overlap-fleet-a-log.$$."*; kill $fleet_pids 2>/dev/null; exit 1;
}
# SIGKILL one node mid-run: start a longer warm loadgen, hard-kill
# node 0 while it runs (for this model set the ring puts most traffic
# on node 0, so the corpse is load-bearing), and require zero failed
# responses — the router must eject it and fail over down the ring.
cargo run --release -q -p overlap-bench --bin overlap-client -- "$fleet_addrs" \
    loadgen --clients 4 --models "$fleet_models" --repeat 200 &
fleet_loadgen_pid=$!
sleep 1
fleet_victim=$(echo $fleet_pids | cut -d' ' -f1)
kill -9 "$fleet_victim"
wait "$fleet_loadgen_pid" || {
    echo "FAIL: loadgen lost responses after SIGKILL of fleet node 0"
    cat ".overlap-fleet-a-log.$$."*; kill $fleet_pids 2>/dev/null; exit 1;
}
# A post-kill pass over the full list (the dead address included) must
# also fully succeed: survivors own the victim's artifacts now.
cargo run --release -q -p overlap-bench --bin overlap-client -- "$fleet_addrs" \
    loadgen --clients 4 --models "$fleet_models" --repeat 2 || {
    echo "FAIL: fleet loadgen with a dead node"; kill $fleet_pids 2>/dev/null; exit 1;
}
# The cluster aggregate must report the outage: 3 of 4 alive.
fleet_agg=$(cargo run --release -q -p overlap-bench --bin overlap-client -- "$fleet_addrs" fleet-stats) || {
    echo "FAIL: fleet-stats with a dead node"; kill $fleet_pids 2>/dev/null; exit 1;
}
echo "$fleet_agg" | grep -q '"alive": 3' || {
    echo "FAIL: fleet-stats did not report 3/4 alive"; echo "$fleet_agg"; kill $fleet_pids 2>/dev/null; exit 1;
}
# Survivors drain cleanly on SIGTERM; the SIGKILLed node is exempt.
fleet_i=0
for p in $fleet_pids; do
    if [ "$fleet_i" != 0 ]; then kill -TERM "$p" 2>/dev/null || true; fi
    fleet_i=$((fleet_i + 1))
done
fleet_i=0
for p in $fleet_pids; do
    if [ "$fleet_i" != 0 ]; then
        wait "$p" || { echo "FAIL: fleet node $fleet_i exited nonzero after SIGTERM"; cat ".overlap-fleet-a-log.$$.$fleet_i"; exit 1; }
        grep -q "drained cleanly" ".overlap-fleet-a-log.$$.$fleet_i" || {
            echo "FAIL: fleet node $fleet_i did not report a clean drain"; cat ".overlap-fleet-a-log.$$.$fleet_i"; exit 1;
        }
        if ls ".overlap-fleet-a-cache.$$.$fleet_i"/*.tmp >/dev/null 2>&1; then
            echo "FAIL: torn artifact-cache entries on fleet node $fleet_i"; exit 1
        fi
    fi
    fleet_i=$((fleet_i + 1))
done

# Determinism: an identical cold run against a second fresh fleet (new
# ports, new caches) must produce a byte-identical summary — routing
# tables, response/match counts and per-node compile counts are pure
# functions of the request set and the fleet size.
launch_fleet $((fleet_base + 10)) b
cargo run --release -q -p overlap-bench --bin overlap-client -- "$fleet_addrs" \
    loadgen --clients 4 --models "$fleet_models" --repeat 2 --expect-dedup \
    --fleet-summary results/fleet_summary.json.second || {
    echo "FAIL: fleet loadgen (determinism rerun)"; cat ".overlap-fleet-b-log.$$."*; kill $fleet_pids 2>/dev/null; exit 1;
}
kill -TERM $fleet_pids 2>/dev/null || true
for p in $fleet_pids; do wait "$p" || { echo "FAIL: determinism fleet drain"; exit 1; }; done
cmp -s results/fleet_summary.json results/fleet_summary.json.second || {
    echo "FAIL: fleet summaries differ between identical cold runs"
    diff results/fleet_summary.json results/fleet_summary.json.second || true
    exit 1
}
rm -f results/fleet_summary.json results/fleet_summary.json.second
rm -rf .overlap-fleet-a-cache.$$.* .overlap-fleet-a-port.$$.* .overlap-fleet-a-log.$$.* \
       .overlap-fleet-b-cache.$$.* .overlap-fleet-b-port.$$.* .overlap-fleet-b-log.$$.*

echo "==> autotune smoke: seeded strategy search, deterministic leaderboard, warm cache"
tune_cache=".overlap-autotune-ci.$$"
rm -rf "$tune_cache"
tune_one=$(OVERLAP_CACHE_DIR="$tune_cache" \
    cargo run --release -q -p overlap-bench --bin fig -- --smoke fig_autotune)
cp results/fig_autotune_smoke.json results/fig_autotune_smoke.json.first
tune_two=$(OVERLAP_CACHE_DIR="$tune_cache" \
    cargo run --release -q -p overlap-bench --bin fig -- --smoke fig_autotune)
rm -rf "$tune_cache"
# The leaderboard JSON must be byte-identical across identically-seeded
# runs (stdout is not compared — the cache counters legitimately differ
# between the cold and the warm pass).
cmp -s results/fig_autotune_smoke.json results/fig_autotune_smoke.json.first || {
    echo "FAIL: autotune leaderboard differs between identically-seeded runs"; exit 1;
}
rm -f results/fig_autotune_smoke.json.first
echo "$tune_one" | grep -q "pruned statically" || {
    echo "FAIL: autotune reported no static pruning"; exit 1;
}
# The second run replays the identical grid against the same disk cache,
# so every compile must be served (the search is cache-oracle-driven).
echo "$tune_two" | grep "^cache:" || { echo "FAIL: warm autotune printed no cache stats"; exit 1; }
case "$tune_two" in
    *"misses=0"*) ;;
    *) echo "FAIL: warm autotune run missed the on-disk artifact cache"; exit 1 ;;
esac

echo "CI gate passed."
