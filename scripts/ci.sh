#!/bin/sh
# CI gate: build + tests (tier 1), the benchmark package (ledger/) built
# and tested the way the benchmark builds it, lint at deny level (including the
# clippy::perf group, denied workspace-wide via [workspace.lints]), keep
# the criterion benches compiling so the harness can't rot, the
# compile-throughput regression gate, and a serve smoke: a real
# `overlapd` on an ephemeral port, concurrent loadgen clients verifying
# byte-identity against direct pipeline runs, then a SIGTERM drain that
# must leave no torn disk-cache entries, a fleet smoke: four `overlapd`
# nodes on one consistent-hash ring, loadgen through the router with
# cluster-wide dedup, SIGKILL of one node with zero failed responses,
# and a deterministic fleet-summary double-run, plus seeded
# fault-injection, tail-latency and strategy-autotune smokes whose
# outputs must be deterministic. Run from the repository root.
#
#   sh scripts/ci.sh
#
# The perf gate binary records results/BENCH_sim.json for trend tracking
# and hard-fails if compiling the largest Table-1 model (GPT_1T) got
# slower than the recorded baseline (results/BENCH_compile_baseline.txt)
# beyond the noise tolerance. Both files are per-machine wall-clock
# artifacts and are gitignored. The baseline file is created on the first
# run; after a deliberate compile-time trade-off, refresh it with
# OVERLAP_COMPILE_BASELINE_UPDATE=1. Set PERFGATE=0 to skip the gate on
# machines with wildly unstable clocks.
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The benchmark (BENCHMARK.json -> ledger/run.sh) is a workspace of its
# own that compiles these crates from source: a rename that breaks it
# must fail here, not in the benchmark pipeline.
echo "==> ledger: build + test what the benchmark builds"
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test --release --offline --manifest-path ledger/Cargo.toml

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

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo bench --no-run (compile gate)"
cargo bench --no-run

if [ "${PERFGATE:-1}" = "1" ]; then
    echo "==> perf + compile-throughput + artifact-cache gate (results/BENCH_sim.json)"
    cargo run --release -p overlap-bench --bin perfgate
    # The serve section must show the event loop actually batched
    # compiles and saw pipelined requests — zero means the new paths
    # silently stopped firing even if latencies still pass.
    for counter in batched pipelined; do
        grep -Eq "\"$counter\": *[1-9]" results/BENCH_sim.json || {
            echo "FAIL: serve bench recorded $counter=0 in results/BENCH_sim.json"; exit 1;
        }
    done
    # Same for the fleet section: zero peer hits means the cache-peering
    # path silently stopped firing.
    grep -Eq '"cluster_peer_hits": *[1-9]' results/BENCH_sim.json || {
        echo "FAIL: fleet bench recorded cluster_peer_hits=0 in results/BENCH_sim.json"; exit 1;
    }
fi

echo "==> artifact-cache disk tier: second run of a driver must be all hits"
cache_dir=".overlap-cache-ci.$$"
rm -rf "$cache_dir"
OVERLAP_CACHE_DIR="$cache_dir" cargo run --release -q -p overlap-bench --bin inference >/dev/null
warm_out=$(OVERLAP_CACHE_DIR="$cache_dir" cargo run --release -q -p overlap-bench --bin inference)
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

echo "==> fault-injection smoke sweep: seeded faults, no panic, deterministic"
smoke_one=$(OVERLAP_FAULT_SMOKE=1 OVERLAP_FAULT_SEED=7 OVERLAP_CACHE=0 \
    cargo run --release -q -p overlap-bench --bin fig_faults)
cp results/fig_faults_smoke.json results/fig_faults_smoke.json.first
smoke_two=$(OVERLAP_FAULT_SMOKE=1 OVERLAP_FAULT_SEED=7 OVERLAP_CACHE=0 \
    cargo run --release -q -p overlap-bench --bin fig_faults)
[ "$smoke_one" = "$smoke_two" ] || {
    echo "FAIL: fault sweep stdout differs between identically-seeded runs"; exit 1;
}
cmp -s results/fig_faults_smoke.json results/fig_faults_smoke.json.first || {
    echo "FAIL: fault sweep JSON differs between identically-seeded runs"; exit 1;
}
rm -f results/fig_faults_smoke.json.first
echo "$smoke_one" | grep -q "fallbacks=" || {
    echo "FAIL: fault sweep reported no fallback counts"; exit 1;
}

echo "==> quant smoke sweep: seeded precision sweep, deterministic, gate-accuracy oracle"
quant_one=$(OVERLAP_QUANT_SMOKE=1 OVERLAP_QUANT_SEED=7 OVERLAP_CACHE=0 \
    cargo run --release -q -p overlap-bench --bin fig_quant)
cp results/fig_quant_smoke.json results/fig_quant_smoke.json.first
quant_two=$(OVERLAP_QUANT_SMOKE=1 OVERLAP_QUANT_SEED=7 OVERLAP_CACHE=0 \
    cargo run --release -q -p overlap-bench --bin fig_quant)
[ "$quant_one" = "$quant_two" ] || {
    echo "FAIL: quant sweep stdout differs between identically-seeded runs"; exit 1;
}
cmp -s results/fig_quant_smoke.json results/fig_quant_smoke.json.first || {
    echo "FAIL: quant sweep JSON differs between identically-seeded runs"; exit 1;
}
rm -f results/fig_quant_smoke.json.first
echo "$quant_one" | grep -q "err<=" || {
    echo "FAIL: quant sweep reported no error bounds"; exit 1;
}
# gate_accuracy doubles as the quantization error oracle (it exits
# nonzero if any measured error beats its documented bound) and must be
# deterministic: two runs on the small proxy model, byte-identical JSON.
cargo run --release -q -p overlap-bench --bin gate_accuracy GPT_32B >/dev/null
cp results/gate_accuracy.json results/gate_accuracy.json.first
cargo run --release -q -p overlap-bench --bin gate_accuracy GPT_32B >/dev/null
cmp -s results/gate_accuracy.json results/gate_accuracy.json.first || {
    echo "FAIL: gate_accuracy differs between identical runs"; exit 1;
}
rm -f results/gate_accuracy.json.first
grep -q '"model": "GPT_32B"' results/gate_accuracy.json || {
    echo "FAIL: gate_accuracy JSON does not record its model"; exit 1;
}
# Restore the committed GPT_256B baseline artifact.
git checkout -- results/gate_accuracy.json 2>/dev/null || true

echo "==> tail smoke sweep: seeded windows-vs-straggler draws, deterministic"
tail_one=$(OVERLAP_TAIL_SMOKE=1 OVERLAP_FAULT_SEED=7 OVERLAP_CACHE=0 \
    cargo run --release -q -p overlap-bench --bin fig_tail)
cp results/fig_tail_smoke.json results/fig_tail_smoke.json.first
tail_two=$(OVERLAP_TAIL_SMOKE=1 OVERLAP_FAULT_SEED=7 OVERLAP_CACHE=0 \
    cargo run --release -q -p overlap-bench --bin fig_tail)
[ "$tail_one" = "$tail_two" ] || {
    echo "FAIL: tail sweep stdout differs between identically-seeded runs"; exit 1;
}
cmp -s results/fig_tail_smoke.json results/fig_tail_smoke.json.first || {
    echo "FAIL: tail sweep JSON differs between identically-seeded runs"; exit 1;
}
rm -f results/fig_tail_smoke.json.first
echo "$tail_one" | grep -q "p99" || {
    echo "FAIL: tail sweep reported no p99 percentiles"; exit 1;
}

echo "==> autotune smoke: seeded strategy search, deterministic leaderboard, warm cache"
tune_cache=".overlap-autotune-ci.$$"
rm -rf "$tune_cache"
tune_one=$(OVERLAP_AUTOTUNE_SMOKE=1 OVERLAP_FAULT_SEED=7 OVERLAP_CACHE_DIR="$tune_cache" \
    cargo run --release -q -p overlap-bench --bin overlap-autotune)
cp results/fig_autotune_smoke.json results/fig_autotune_smoke.json.first
tune_two=$(OVERLAP_AUTOTUNE_SMOKE=1 OVERLAP_FAULT_SEED=7 OVERLAP_CACHE_DIR="$tune_cache" \
    cargo run --release -q -p overlap-bench --bin overlap-autotune)
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
