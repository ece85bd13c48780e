#!/usr/bin/env bash
# Full local gate: formatting, lints (warnings are errors), release
# build, and the test suite — the same bar CI holds a change to.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (every workspace crate, dev profile)"
# Tests build in the dev profile, so the simulators' debug assertions
# (arena/source positional identity, frame bookkeeping) stay armed.
cargo test --workspace -q

echo "==> perfbench (build the benchmark and run its tests)"
# perfbench is a package of its own, outside the workspace, but it
# compiles against optspace, gpu-sim and gpu-kernels internals: a core
# API change that breaks it must fail the gate too.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> fine-grid ground truth (release, ignored by default)"
# Exhaustive and Pareto-pruned search of the fine-pareto slice, pinned
# to their bests: the gap between them is the paper's claim failing.
cargo test --release -q --test fine_ground_truth -- --ignored

echo "==> trace smoke (tune sad --trace-out/--metrics-out + validate)"
# A full-space SAD search must export a JSONL trace whose every line
# parses and a manifest that survives a serialize -> parse round trip;
# `validate` checks both in-process (the container has no jq).
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --trace-out "$tracedir/trace.jsonl" --metrics-out "$tracedir/manifest.json" \
    > /dev/null
cargo run --release -q -- validate "$tracedir/trace.jsonl" "$tracedir/manifest.json"

echo "==> negative trace smoke (validate rejects a record without \`schema\`)"
# The one trace reader is strict: a copy of the trace with the schema
# stripped from one record must fail validation, naming the key.
sed '2s/"schema":[0-9]*,//' "$tracedir/trace.jsonl" > "$tracedir/no_schema.jsonl"
if cargo run --release -q -- validate "$tracedir/no_schema.jsonl" "$tracedir/manifest.json" \
    > /dev/null 2> "$tracedir/no_schema.err"; then
    echo "negative trace smoke: validate accepted a record without \`schema\`" >&2
    exit 1
fi
grep -q 'line 2: record: missing `schema`' "$tracedir/no_schema.err" || {
    echo "negative trace smoke: unexpected error:" >&2
    cat "$tracedir/no_schema.err" >&2
    exit 1
}

echo "==> nesting smoke (validate rejects a 100,000-deep line)"
# The JSON reader bounds its nesting depth: a damaged file fails
# validation with exit 1 and a message, never a stack overflow (134).
awk 'BEGIN { for (i = 0; i < 100000; i++) printf "["; print "" }' > "$tracedir/deep.jsonl"
set +e
cargo run --release -q -- validate "$tracedir/deep.jsonl" "$tracedir/manifest.json" \
    > /dev/null 2> "$tracedir/deep.err"
status=$?
set -e
if [ "$status" -ne 1 ]; then
    echo "nesting smoke: expected exit 1 from validate, got $status" >&2
    exit 1
fi
grep -q "nesting deeper than" "$tracedir/deep.err" || {
    echo "nesting smoke: unexpected error:" >&2
    cat "$tracedir/deep.err" >&2
    exit 1
}

echo "==> trace report smoke (trace report on the exported JSONL)"
# The offline analyzer must tell the run's story from the trace file
# alone: its --profile table, runtime rows included, and convergence.
report=$(cargo run --release -q -- trace report "$tracedir/trace.jsonl")
echo "$report" | head -n 1
for section in "profile" "sims to optimum" "worker utilization" "convergence"; do
    echo "$report" | grep -q "$section" || {
        echo "trace report smoke: missing \`$section\` section" >&2
        exit 1
    }
done

echo "==> family-accounting smoke (tune mri/cp --profile, trace report)"
# MRI-FHD forks 25 families: the curve counts each forked run once, as
# `sims executed` does, and `trace report` prints the run's own
# --profile table, byte for byte, runtime rows included.
cargo run --release -q -- tune mri --strategy exhaustive --jobs 2 --profile \
    --trace-out "$tracedir/mri.jsonl" > "$tracedir/mri_profile.txt"
row() { grep -E "^$1 +[0-9]" "$2" | awk '{ print $NF ~ /%$/ ? $(NF-1) : $NF }'; }
executed=$(row "sims executed" "$tracedir/mri_profile.txt")
to_optimum=$(row "unique sims to optimum" "$tracedir/mri_profile.txt")
memoized=$(row "sims memoized" "$tracedir/mri_profile.txt")
echo "sims executed $executed, unique sims to optimum $to_optimum, sims memoized $memoized"
if [ "$executed" != 25 ] || [ -z "$to_optimum" ] || [ "$to_optimum" -gt "$executed" ]; then
    echo "family-accounting smoke: expected 25 sims executed and no more unique sims to the optimum" >&2
    exit 1
fi
cargo run --release -q -- trace report "$tracedir/mri.jsonl" > "$tracedir/mri_report.txt"
reported=$(row "sims memoized" "$tracedir/mri_report.txt")
if [ "$memoized" != 150 ] || [ "$reported" != "$memoized" ]; then
    echo "family-accounting smoke: trace report says $reported sims memoized, the profile $memoized" >&2
    exit 1
fi
# The table under `profile:` in tune's output, and under `profile` in
# trace report's.
table() { awk -v head="$1" '$0 == head { on = 1; next } on && $0 == "" { exit } on' "$2"; }
cargo run --release -q -- tune cp --strategy bnb --jobs 2 --profile \
    --trace-out "$tracedir/cp_bnb.jsonl" > "$tracedir/cp_bnb_profile.txt"
cargo run --release -q -- trace report "$tracedir/cp_bnb.jsonl" > "$tracedir/cp_bnb_report.txt"
for run in mri cp_bnb; do
    table "profile:" "$tracedir/${run}_profile.txt" > "$tracedir/${run}_profile_table.txt"
    table "profile" "$tracedir/${run}_report.txt" > "$tracedir/${run}_report_table.txt"
    grep -q "^worker utilization" "$tracedir/${run}_profile_table.txt" || {
        echo "family-accounting smoke: the $run profile has no worker utilization row" >&2
        exit 1
    }
    diff -u "$tracedir/${run}_profile_table.txt" "$tracedir/${run}_report_table.txt" || {
        echo "family-accounting smoke: trace report's table is not the $run --profile table" >&2
        exit 1
    }
done

echo "==> chrome trace smoke (tune sad --trace-format chrome)"
# The Chrome exporter must emit a trace_event document Perfetto can
# load: a traceEvents array with thread-name metadata.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --trace-out "$tracedir/trace_chrome.json" --trace-format chrome > /dev/null
grep -q '"traceEvents"' "$tracedir/trace_chrome.json" || {
    echo "chrome smoke: no traceEvents array in the export" >&2
    exit 1
}
grep -q '"orchestrator"' "$tracedir/trace_chrome.json" || {
    echo "chrome smoke: no orchestrator thread-name metadata" >&2
    exit 1
}

echo "==> fault-injection smoke (table4 --inject-faults)"
# The search must complete (exit 0) in degraded mode and report a
# non-empty quarantine section.
smoke=$(cargo run --release -q -p optspace-bench --bin table4 -- \
    --jobs 2 --inject-faults)
echo "$smoke" | tail -n 1
echo "$smoke" | grep -q "^quarantined configurations: [1-9]" || {
    echo "fault-injection smoke: expected a non-empty quarantine section" >&2
    exit 1
}

echo "==> race-detector smoke (tune cp --check-races)"
# With the static race detector armed, a real application space must
# come through clean: no degraded report, no verify.race trace events.
races=$(cargo run --release -q -- tune cp --strategy exhaustive --jobs 2 \
    --check-races --trace-out "$tracedir/races.jsonl")
echo "$races" | tail -n 1
if echo "$races" | grep -q "DEGRADED"; then
    echo "race smoke: --check-races quarantined configurations on the CP space" >&2
    exit 1
fi
if grep -q "verify.race" "$tracedir/races.jsonl"; then
    echo "race smoke: unexpected verify.race event on the CP space" >&2
    exit 1
fi

echo "==> selection smoke (tune matmul --filter tile=16)"
# The declarative filter must narrow the matmul space to its 48
# tile-16 points and still find a best configuration.
filtered=$(cargo run --release -q -- tune matmul --strategy exhaustive --jobs 2 \
    --filter tile=16)
echo "$filtered" | tail -n 1
echo "$filtered" | grep -q "selection: tile=16 -> 48 of 96 configurations" || {
    echo "selection smoke: expected the tile=16 filter to keep 48 of 96 points" >&2
    exit 1
}
echo "$filtered" | grep -q "^best configuration: .*16x16" || {
    echo "selection smoke: expected a 16x16 best configuration" >&2
    exit 1
}

echo "==> launch-first smoke (tune matmul --grid fine --filter tile=32)"
# Every tile=32 point is a 1,024-thread block, past the G80's 512: the
# launch alone makes it an invalid executable, so static evaluation of
# all 20,480 must finish without generating a kernel (parent: 4.5 s).
cargo run --release -q -- tune matmul --grid fine --filter tile=32 --strategy pareto \
    --jobs 2 --profile > "$tracedir/tile32.txt"
grep -q "selection: tile=32 -> 20480 of 102400 configurations" "$tracedir/tile32.txt" || {
    echo "launch-first smoke: expected tile=32 to keep 20480 of 102400 points" >&2
    exit 1
}
grep -Eq "^static evals +20480$" "$tracedir/tile32.txt" || {
    echo "launch-first smoke: expected 20480 static evals" >&2
    exit 1
}
grep -q "^no configuration could be timed$" "$tracedir/tile32.txt" || {
    echo "launch-first smoke: expected no timed configuration" >&2
    exit 1
}
awk '$1 == "static" && $2 == "wall" { found = 1; ok = ($4 == "us" || ($4 == "ms" && $3 < 1000)) }
     END { exit !(found && ok) }' "$tracedir/tile32.txt" || {
    echo "launch-first smoke: static wall not under 1,000 ms:" >&2
    grep "^static wall" "$tracedir/tile32.txt" >&2
    exit 1
}
grep "^static wall" "$tracedir/tile32.txt"

echo "==> branch-and-bound smoke (tune cp --strategy bnb)"
# Best-first search under the admissible bound must land on the same
# optimum exhaustive evaluation finds on the CP space, and its profile
# must show subspaces discarded without instantiation.
cargo run --release -q -- tune cp --strategy exhaustive --jobs 2 \
    > "$tracedir/cp_exhaustive.txt"
cargo run --release -q -- tune cp --strategy bnb --jobs 2 --profile \
    > "$tracedir/cp_bnb.txt"
best_exhaustive=$(grep "^best configuration:" "$tracedir/cp_exhaustive.txt")
best_bnb=$(grep "^best configuration:" "$tracedir/cp_bnb.txt")
echo "$best_bnb"
if [ "$best_exhaustive" != "$best_bnb" ]; then
    echo "bnb smoke: optimum differs from exhaustive:" >&2
    echo "  exhaustive: $best_exhaustive" >&2
    echo "  bnb:        $best_bnb" >&2
    exit 1
fi
grep -Eq "^bound-pruned subspaces +[1-9]" "$tracedir/cp_bnb.txt" || {
    echo "bnb smoke: expected bound_pruned_subspaces > 0 in the profile" >&2
    exit 1
}

echo "==> persistence smoke (tune sad --store-dir, warm re-run, corruption)"
# A warm store must serve every unique back as a store hit with zero
# fresh simulations; a torn segment must cost only the damaged records,
# never the run. The cold run keys on two workers and the warm re-run,
# a new process, on one: content keys must agree across both.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --store-dir "$tracedir/store" > "$tracedir/cold.txt" 2> /dev/null
cargo run --release -q -- tune sad --strategy exhaustive --jobs 1 \
    --store-dir "$tracedir/store" --profile > "$tracedir/warm.txt" 2> /dev/null
grep -Eq "store hits +[1-9]" "$tracedir/warm.txt" || {
    echo "persistence smoke: expected store hits > 0 on the warm run" >&2
    exit 1
}
grep -Eq "sims executed +0 " "$tracedir/warm.txt" || {
    echo "persistence smoke: expected zero fresh simulations on the warm run" >&2
    exit 1
}
verify=$(cargo run --release -q -- store verify "$tracedir/store")
echo "$verify"
echo "$verify" | grep -q " 0 ignored" || {
    echo "persistence smoke: the store this build wrote holds records it ignores" >&2
    exit 1
}
seg=$(ls "$tracedir/store"/*.seg | head -n 1)
truncate -s -10 "$seg"
cargo run --release -q -- store verify "$tracedir/store" | tail -n 1
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --store-dir "$tracedir/store" > "$tracedir/damaged.txt" 2> /dev/null || {
    echo "persistence smoke: run failed after segment corruption" >&2
    exit 1
}
grep "^best configuration:" "$tracedir/cold.txt" > "$tracedir/cold_best.txt"
grep "^best configuration:" "$tracedir/damaged.txt" > "$tracedir/damaged_best.txt"
diff -u "$tracedir/cold_best.txt" "$tracedir/damaged_best.txt" || {
    echo "persistence smoke: best configuration changed after corruption" >&2
    exit 1
}
# A stored result a tighter --sim-fuel would refuse must be simulated
# again, not served: over a store filled without a limit, the limited
# run quarantines and finds what the cold limited run does.
mri=(tune mri --strategy exhaustive --jobs 2 --sim-fuel 200000)
cargo run --release -q -- "${mri[@]}" > "$tracedir/mri_cold.txt"
cargo run --release -q -- tune mri --strategy exhaustive --jobs 2 \
    --store-dir "$tracedir/mri_store" > /dev/null 2>&1
cargo run --release -q -- "${mri[@]}" --store-dir "$tracedir/mri_store" \
    > "$tracedir/mri_warm.txt" 2> /dev/null
grep -E "^(DEGRADED|best configuration):" "$tracedir/mri_cold.txt" > "$tracedir/mri_cold_lines.txt"
grep -E "^(DEGRADED|best configuration):" "$tracedir/mri_warm.txt" > "$tracedir/mri_warm_lines.txt"
grep -q "^DEGRADED:" "$tracedir/mri_cold_lines.txt" || {
    echo "persistence smoke: --sim-fuel 200000 no longer quarantines any MRI configuration" >&2
    exit 1
}
diff -u "$tracedir/mri_cold_lines.txt" "$tracedir/mri_warm_lines.txt" || {
    echo "persistence smoke: a warm store changed the fuel-limited MRI result" >&2
    exit 1
}

echo "==> resume smoke (tune sad/cp --checkpoint/--stop-after-units, rerun)"
# An interrupted run (exit 130, no stdout report) rerun with the same
# --checkpoint resumes, and must print a report byte-identical to an
# uninterrupted run.
# The checkpoint is a directory whose results the result store's own
# verifier reads back intact, and a completed run removes it.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    > "$tracedir/uninterrupted.txt"
set +e
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --checkpoint "$tracedir/sad.ck" --stop-after-units 100 \
    > "$tracedir/interrupted.txt" 2> "$tracedir/interrupted.err"
status=$?
set -e
if [ "$status" -ne 130 ]; then
    echo "resume smoke: expected exit 130 from the interrupted run, got $status" >&2
    exit 1
fi
if [ -s "$tracedir/interrupted.txt" ]; then
    echo "resume smoke: interrupted run must not print a stdout report" >&2
    exit 1
fi
# --stop-after-units N admits exactly N work units.
grep -q "^interrupted after 100 units:" "$tracedir/interrupted.err" || {
    echo "resume smoke: expected \`interrupted after 100 units\` on stderr, got:" >&2
    cat "$tracedir/interrupted.err" >&2
    exit 1
}
verify=$(cargo run --release -q -- store verify "$tracedir/sad.ck")
echo "$verify"
echo "$verify" | grep -Eq ", [1-9][0-9]* records? " || {
    echo "resume smoke: the interrupted run's checkpoint holds no results" >&2
    exit 1
}
echo "$verify" | grep -q " 0 ignored " && echo "$verify" | grep -q " 0 dropped," || {
    echo "resume smoke: the checkpoint holds ignored or damaged records" >&2
    exit 1
}
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --checkpoint "$tracedir/sad.ck" > "$tracedir/resumed.txt" 2> /dev/null
diff -u "$tracedir/uninterrupted.txt" "$tracedir/resumed.txt" || {
    echo "resume smoke: resumed report differs from the uninterrupted run" >&2
    exit 1
}
if [ -e "$tracedir/sad.ck" ]; then
    echo "resume smoke: the completed run left its checkpoint behind" >&2
    exit 1
fi
# The same holds for a feedback-driven strategy: resume replays its
# proposals from the start.
anneal=(tune cp --strategy anneal --budget 12 --seed 1 --jobs 2)
cargo run --release -q -- "${anneal[@]}" > "$tracedir/anneal_uninterrupted.txt"
set +e
cargo run --release -q -- "${anneal[@]}" --checkpoint "$tracedir/anneal.ck" \
    --stop-after-units 4 > "$tracedir/anneal_interrupted.txt" 2> /dev/null
status=$?
set -e
if [ "$status" -ne 130 ]; then
    echo "resume smoke: expected exit 130 from the interrupted anneal run, got $status" >&2
    exit 1
fi
if [ -s "$tracedir/anneal_interrupted.txt" ]; then
    echo "resume smoke: interrupted anneal run must not print a stdout report" >&2
    exit 1
fi
cargo run --release -q -- "${anneal[@]}" --checkpoint "$tracedir/anneal.ck" \
    > "$tracedir/anneal_resumed.txt" 2> /dev/null
diff -u "$tracedir/anneal_uninterrupted.txt" "$tracedir/anneal_resumed.txt" || {
    echo "resume smoke: resumed anneal report differs from the uninterrupted run" >&2
    exit 1
}

echo "==> checkpoint dispatch smoke (tune sad --checkpoint spawns no extra workers)"
# A checkpoint records each unit as it finishes inside the same pool
# call: the checkpointed run spawns exactly the workers the plain run of
# the trace smoke spawned.
cargo run --release -q -- tune sad --strategy exhaustive --jobs 2 \
    --checkpoint "$tracedir/spawn.ck" --metrics-out "$tracedir/manifest_ck.json" \
    > /dev/null 2>&1
plain_spawned=$(grep -o '"workers_spawned": *[0-9]*' "$tracedir/manifest.json")
ck_spawned=$(grep -o '"workers_spawned": *[0-9]*' "$tracedir/manifest_ck.json")
echo "plain $plain_spawned, checkpointed $ck_spawned"
if [ -z "$plain_spawned" ] || [ "$plain_spawned" != "$ck_spawned" ]; then
    echo "checkpoint dispatch smoke: the checkpointed run spawned a different number of workers" >&2
    exit 1
fi

echo "==> strategy-zoo smoke (tune cp --strategy hill|anneal|genetic|surrogate)"
# Every iterative strategy must complete a small seeded search on the
# CP space and report a best configuration under its seed-bearing name.
for strategy in hill anneal genetic surrogate; do
    zoo=$(cargo run --release -q -- tune cp --strategy "$strategy" \
        --budget 12 --seed 1 --jobs 2)
    echo "$zoo" | grep -q "^best configuration:" || {
        echo "zoo smoke: --strategy $strategy found no best configuration" >&2
        exit 1
    }
    echo "$zoo" | grep -q "^strategy $strategy-12" || {
        echo "zoo smoke: --strategy $strategy report lacks its budgeted name" >&2
        exit 1
    }
done

echo "==> zoo study smoke (zoo --app cp --zoo-out)"
# The zoo study document must score the random baseline and every
# iterative strategy, each under its budgeted name.
cargo run --release -q -p optspace-bench --bin zoo -- --app cp --jobs 2 \
    --zoo-out "$tracedir/zoo.json" > /dev/null
for strategy in random hill anneal genetic surrogate; do
    grep -q "\"strategy\": \"$strategy" "$tracedir/zoo.json" || {
        echo "zoo study smoke: no $strategy entry in the document" >&2
        exit 1
    }
done

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps > /dev/null

echo "All checks passed."
