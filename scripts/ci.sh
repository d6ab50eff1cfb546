#!/usr/bin/env sh
# Offline CI gate: build, test, lint, metrics schema. No network access
# required — the workspace has zero external dependencies by design.
set -eu

cd "$(dirname "$0")/.."

# Every leg registers its temp files with `tmpfiles`; one EXIT trap removes
# them all and stops the serve daemon if a leg failed while it ran.
CLEANUP=
SERVE_PID=
cleanup() {
    if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
    # Unquoted on purpose: the list splits into paths (mktemp's have no
    # spaces).
    rm -f $CLEANUP
}
trap cleanup EXIT
trap 'exit 1' INT TERM
# tmpfiles NAME...: create a temp file per NAME, store its path in the
# variable NAME and register it for cleanup.
tmpfiles() {
    for name in "$@"; do
        f=$(mktemp)
        CLEANUP="$CLEANUP $f"
        eval "$name=\$f"
    done
}

cargo build --release --offline
# --workspace: at the workspace root a bare `cargo test` tests only the
# root `xdata` package, skipping every member crate's own tests.
cargo test -q --offline --workspace
cargo clippy --workspace --all-targets --offline -- -D warnings

# Ledger leg: the benchmark is a package of its own (ledger/Cargo.toml),
# outside the workspace. Its tests smoke-run all four workloads, so an API
# change that breaks the benchmark fails here rather than in a bench run.
cargo test -q --release --offline --manifest-path ledger/Cargo.toml

# Doc gate: every crate must document cleanly — broken intra-doc links,
# bare URLs and other rustdoc lints fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Metrics-schema gate: the library-level tests assert every canonical
# counter/histogram/span key is present and that the timing-stripped
# report is byte-identical across --jobs values.
cargo test -q --offline --test metrics_schema

# Chaos gate: deterministic fault injection (injected panics, forced
# Unknown exits, synthetic deadline expiry) must yield byte-identical
# partial suites and stripped metrics across --jobs values, with every
# skip attributed. The serve binary's chaos test checks that an expired
# target becomes an `Unevaluated` verdict over the wire.
cargo test -q --offline --features chaos --test chaos --test serve

# Grading-sweep smoke gate: the batch grader over a tiny synthetic
# submission pile. The binary asserts hash/nested verdict parity
# (byte-identical rendered reports), per-candidate agreement between the
# amortized batch and the independent per-candidate loop, and bulk-join
# result parity, before it prints a single timing.
tmpfiles GRADE_OUT
CLEANUP="$CLEANUP $GRADE_OUT.trace.json"
XDATA_GRADE_CANDIDATES=60 XDATA_JOIN_ROWS=64 \
    XDATA_SWEEP_OUT="$GRADE_OUT" \
    cargo run -q --release --offline -p xdata-bench --bin grading_sweep \
    > /dev/null
echo "ci: grading_sweep smoke (batch/independent + hash/nested parity) OK"

# Doc-link gate: every backticked metric key named in DESIGN.md must
# exist in the canonical registry (crates/xdata-obs/src/names.rs), so
# the design doc's consolidated key table cannot drift from the code.
for key in $(grep -o '`\(core\|engine\|solver\|kill\|par\|serve\)\.[a-z_.]*`' DESIGN.md \
        | tr -d '\`' | sed 's/\.$//' | sort -u); do
    case "$key" in
        # Brace-expanded table rows list their members explicitly below.
        kill.killed|kill.survived) continue ;;
    esac
    grep -q "\"$key" crates/xdata-obs/src/names.rs || {
        echo "ci: DESIGN.md names metric key $key, missing from xdata-obs names registry" >&2
        exit 1
    }
done
for class in join cmp agg having_cmp having_agg distinct subquery like null_check; do
    for verdict in killed survived; do
        grep -q "\"kill.$verdict.$class\"" crates/xdata-obs/src/names.rs || {
            echo "ci: kill.$verdict.$class missing from xdata-obs names registry" >&2
            exit 1
        }
    done
done
echo "ci: DESIGN.md metric keys all present in the registry"

# End-to-end check of the CLI surface on the paper's running example:
# generate with --metrics-json under two thread counts, require the
# canonical keys, and require the timing-stripped reports identical.
Q='SELECT * FROM instructor i, teaches t WHERE i.id = t.id AND i.salary > 50000'
tmpfiles M1 M4
./target/release/xdata generate --schema examples/university.sql \
    --query "$Q" --jobs 1 --metrics-json "$M1" > /dev/null
./target/release/xdata generate --schema examples/university.sql \
    --query "$Q" --jobs 4 --metrics-json "$M4" > /dev/null
for key in solver.decisions solver.conflicts solver.propagations \
    solver.theory_relaxations solver.unknown_exits \
    solver.learned_clauses solver.restarts solver.backjump_depth \
    core.skeleton_cache.hit core.skeleton_cache.miss \
    core.solve_memo.hit core.solve_memo.miss \
    kill.killed.join timings_ns; do
    grep -q "\"$key\"" "$M1" || { echo "ci: metrics key $key missing" >&2; exit 1; }
done
# Strip the trailing timings_ns section (always the last top-level key)
# and byte-compare.
strip_timings() { sed -n '1,/"timings_ns"/p' "$1" | sed '$d'; }
if [ "$(strip_timings "$M1")" != "$(strip_timings "$M4")" ]; then
    echo "ci: timing-stripped metrics differ between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "ci: metrics schema + determinism OK"

# Extended-class smoke leg (§V-H): generate + evaluate on the nullable
# subquery example. The suite must plan a NULL-membership witness (the
# `NOT IN` trap dataset), kill every subquery-connective mutant, count
# the witness in core.targets.null_witness, and stay byte-identical
# across --jobs values.
EQ='SELECT name FROM instructor WHERE id IN (SELECT id FROM teaches WHERE year > 2000)'
tmpfiles E1 E4 EM
./target/release/xdata generate --schema examples/university_subqueries.sql \
    --query "$EQ" --jobs 1 --metrics-json "$EM" > "$E1"
./target/release/xdata generate --schema examples/university_subqueries.sql \
    --query "$EQ" --jobs 4 > "$E4"
if ! cmp -s "$E1" "$E4"; then
    echo "ci: extended-class suite differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
grep -q 'NULL membership witness' "$E1" || {
    echo "ci: extended-class suite is missing the NULL membership witness dataset" >&2
    exit 1
}
grep -q '"core.targets.null_witness": *[1-9]' "$EM" || {
    echo "ci: core.targets.null_witness was not counted for the witness target" >&2
    exit 1
}
EVAL_OUT=$(./target/release/xdata evaluate \
    --schema examples/university_subqueries.sql --query "$EQ")
echo "$EVAL_OUT" | grep -q ' 0 surviving' || {
    echo "ci: a subquery-connective mutant survived on the extended-class example" >&2
    echo "$EVAL_OUT" >&2
    exit 1
}
echo "$EVAL_OUT" | grep -q 'subquery connective mutant' || {
    echo "ci: evaluate produced no subquery-connective mutants" >&2
    exit 1
}
echo "ci: extended-class smoke (NULL witness + kill-complete + jobs determinism) OK"

# Grading leg: batch-grade the sample submission pile against the
# reference on the shipped schema under two thread counts — the rendered
# verdict report carries no timings and must be byte-identical. (Hash vs
# nested-loop identity is checked by tests/grading.rs and tests/chaos.rs,
# which call grade_batch with each strategy.)
GQ='SELECT i.name, t.course_id FROM instructor i, teaches t WHERE i.id = t.id'
tmpfiles G1 G4
./target/release/xdata grade --schema examples/university.sql \
    --query "$GQ" --candidates examples/submissions.sql --jobs 1 > "$G1"
./target/release/xdata grade --schema examples/university.sql \
    --query "$GQ" --candidates examples/submissions.sql --jobs 4 > "$G4"
grep -q '^#0 *PASS' "$G1" || { echo "ci: expected candidate 0 to PASS" >&2; exit 1; }
grep -q 'INVALID' "$G1" || { echo "ci: expected an INVALID verdict" >&2; exit 1; }
grep -q 'dup\]' "$G1" || { echo "ci: expected a dedup hit" >&2; exit 1; }
if ! cmp -s "$G1" "$G4"; then
    echo "ci: verdict report differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
echo "ci: batch grading verdict stability OK"

# Trace leg: capture an event timeline on the same Table I example, have
# `xdata trace --validate` run the built-in structural checker (balanced
# begin/end nesting, monotonic per-thread timestamps, flow ordering — no
# external tooling), and require the critical path to tile the root span
# (the subcommand exits non-zero if the segment sum diverges).
tmpfiles T F
./target/release/xdata evaluate --schema examples/university.sql \
    --query "$Q" --jobs 4 --trace-out "$T" > /dev/null
grep -q '"traceEvents"' "$T" || {
    echo "ci: --trace-out did not write Chrome trace-event JSON" >&2
    exit 1
}
grep -q '"git_sha"' "$T" || {
    echo "ci: trace artifact is missing build provenance metadata" >&2
    exit 1
}
TRACE_OUT=$(./target/release/xdata trace "$T" --validate --folded "$F")
echo "$TRACE_OUT" | grep -q '^validated:' || {
    echo "ci: xdata trace --validate did not pass the structural checker" >&2
    exit 1
}
echo "$TRACE_OUT" | grep -q 'critical path' || {
    echo "ci: xdata trace printed no critical path" >&2
    exit 1
}
test -s "$F" || { echo "ci: folded-stacks export is empty" >&2; exit 1; }
echo "ci: trace capture + validation + critical path OK"

# Help-snapshot leg: `xdata --help` is the CLI's documented surface;
# scripts/cli_help.txt is its committed snapshot. Any flag or command
# added without updating the snapshot (and thus the README flag table
# next to it) fails here.
tmpfiles H
./target/release/xdata --help > "$H"
if ! cmp -s "$H" scripts/cli_help.txt; then
    echo "ci: xdata --help drifted from scripts/cli_help.txt" >&2
    echo "ci: regenerate with: ./target/release/xdata --help > scripts/cli_help.txt" >&2
    echo "ci: (and update the README flag table if the surface changed)" >&2
    diff scripts/cli_help.txt "$H" >&2 || true
    exit 1
fi
echo "ci: CLI --help snapshot OK"

# Protocol-doc gate: PROTOCOL.md is normative for the wire format, so it
# must name every public wire type and every error code defined in
# crates/xdata-client/src/protocol.rs. Renaming or adding either without
# documenting it fails here.
for name in $(grep -o 'pub \(struct\|enum\) [A-Za-z]*' \
        crates/xdata-client/src/protocol.rs | awk '{print $3}' | sort -u); do
    grep -q "$name" PROTOCOL.md || {
        echo "ci: wire type $name (protocol.rs) is not documented in PROTOCOL.md" >&2
        exit 1
    }
done
for code in $(sed -n '/fn as_str/,/^    }/p' crates/xdata-client/src/protocol.rs \
        | grep -o '"[a-z_]*"' | tr -d '"' | sort -u); do
    grep -q "\`$code\`" PROTOCOL.md || {
        echo "ci: error code $code (protocol.rs) is not documented in PROTOCOL.md" >&2
        exit 1
    }
done
echo "ci: PROTOCOL.md covers every wire type and error code"

# Serve loopback smoke: boot the real daemon on an ephemeral port, ping
# it, require a wire `generate` byte-identical to the batch CLI on the
# same inputs (the service mode's core contract), then shut it down
# gracefully and require exit 0.
cargo build -q --release --offline -p xdata-client
tmpfiles SERVE_LOG WIRE LOCAL
./target/release/xdata serve --listen 127.0.0.1:0 > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/^listening on //p' "$SERVE_LOG")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "ci: xdata serve never printed its listen address" >&2; exit 1; }
./target/release/xdata-client --addr "$ADDR" ping | grep -q '^pong: protocol 1' || {
    echo "ci: daemon ping failed" >&2
    exit 1
}
./target/release/xdata-client --addr "$ADDR" generate \
    --schema examples/university.sql --query "$Q" > "$WIRE"
./target/release/xdata generate \
    --schema examples/university.sql --query "$Q" > "$LOCAL"
if ! cmp -s "$WIRE" "$LOCAL"; then
    echo "ci: wire generate output differs from the batch CLI (byte-identity contract)" >&2
    exit 1
fi
./target/release/xdata-client --addr "$ADDR" shutdown > /dev/null
wait "$SERVE_PID" || { echo "ci: daemon exited nonzero after graceful shutdown" >&2; exit 1; }
SERVE_PID=
echo "ci: serve loopback smoke (ping + wire/CLI byte-identity + graceful shutdown) OK"

# Serve-sweep smoke: the service-mode bench at a tiny scale. The binary
# asserts wire/in-process output parity on every response and
# warm-p50 < cold before printing a single timing, so this is a
# correctness gate for the warm path too. Writes to a temp file.
tmpfiles SERVE_SWEEP_OUT
XDATA_SERVE_REQUESTS=3 XDATA_SERVE_WORKERS=2 \
    XDATA_SWEEP_OUT="$SERVE_SWEEP_OUT" \
    cargo run -q --release --offline -p xdata-bench --bin serve_sweep \
    > /dev/null
echo "ci: serve_sweep smoke (parity + warm<cold) OK"
