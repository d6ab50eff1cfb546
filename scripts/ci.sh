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

# Recorder-isolation gate: the tests of these six binaries record metrics
# and traces, and run daemons, side by side in one process with default
# test threads. Each run records into the recorder bound to its own
# thread; twenty runs in a row give a leak between concurrent runs twenty
# chances to show. Among them, metrics_schema asserts every canonical key
# and the --jobs-independent stripped report, and the chaos feature's
# deterministic fault injection (injected panics, forced Unknown exits,
# synthetic deadline expiry) must yield byte-identical partial suites and
# stripped metrics across --jobs values, with every skip attributed.
tmpfiles ISOLATION_LOG
i=0
while [ $i -lt 20 ]; do
    cargo test -q --offline --features chaos --test serve --test chaos \
        --test metrics_schema --test trace_export --test warm_cache \
        --test parallel_determinism > "$ISOLATION_LOG" 2>&1 || {
        cat "$ISOLATION_LOG" >&2
        echo "ci: recorder-isolation run $((i + 1)) of 20 failed" >&2
        exit 1
    }
    i=$((i + 1))
done
echo "ci: recorder isolation (six test binaries, 20 runs) OK"

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

# Mutants leg: list the running example's mutation space under two thread
# counts. The listings must be byte-identical, and listing must solve
# nothing: the mutation space needs the normalized query, not a suite.
tmpfiles MU1 MU4 MUM1 MUM4
./target/release/xdata mutants --schema examples/university.sql \
    --query "$Q" --jobs 1 --metrics-json "$MUM1" > "$MU1"
./target/release/xdata mutants --schema examples/university.sql \
    --query "$Q" --jobs 4 --metrics-json "$MUM4" > "$MU4"
if ! cmp -s "$MU1" "$MU4"; then
    echo "ci: mutants listing differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
for key in core.targets.solved solver.ground_solves; do
    grep -q "\"$key\": 0," "$MUM1" && grep -q "\"$key\": 0," "$MUM4" || {
        echo "ci: listing the mutants recorded a nonzero $key" >&2
        exit 1
    }
done
echo "ci: mutants listing (no solves + jobs determinism) OK"

# Certified-survivor leg: evaluate a self-join on the running example, as
# written and as an AVG over it, under two thread counts. The listings and
# the timing-stripped metrics must be byte-identical, and both certificate
# rules must fire on each form: the teaches(id) -> instructor(id) key
# proves the mutants that pad instructor, and an inner-join ancestor that
# reads teaches rejects the rows padded there. AVG adds in value order, so
# it leaves the certificates as they are.
SJ='FROM instructor i, teaches t, teaches u WHERE i.id = t.id AND t.course_id = u.course_id'
tmpfiles C1 C4 CM1 CM4
for CQ in "SELECT * $SJ" "SELECT i.dept_id, AVG(i.salary) $SJ GROUP BY i.dept_id"; do
    ./target/release/xdata evaluate --schema examples/university.sql \
        --query "$CQ" --jobs 1 --metrics-json "$CM1" > "$C1"
    ./target/release/xdata evaluate --schema examples/university.sql \
        --query "$CQ" --jobs 4 --metrics-json "$CM4" > "$C4"
    if ! cmp -s "$C1" "$C4"; then
        echo "ci: evaluate output differs between --jobs 1 and --jobs 4: $CQ" >&2
        exit 1
    fi
    if [ "$(strip_timings "$CM1")" != "$(strip_timings "$CM4")" ]; then
        echo "ci: timing-stripped metrics differ between --jobs 1 and --jobs 4: $CQ" >&2
        exit 1
    fi
    for key in kill.certified.null_rejected kill.certified.foreign_key; do
        grep -q "\"$key\": *[1-9]" "$CM1" || {
            echo "ci: $key is zero on: $CQ" >&2
            exit 1
        }
    done
done
echo "ci: certified survivors (both rules + jobs determinism) OK"

# Budget leg: evaluate the running example with a decision budget of 0
# under two thread counts. Every target that needs a decision is skipped
# with the budget reason. The listings and the timing-stripped metrics
# must be byte-identical, and solver.unknown_exits, the recorder's count
# of solves that ran out of budget, must be nonzero.
tmpfiles B1 B4 BM1 BM4
./target/release/xdata evaluate --schema examples/university.sql \
    --query "$Q" --decision-limit 0 --jobs 1 --metrics-json "$BM1" > "$B1"
./target/release/xdata evaluate --schema examples/university.sql \
    --query "$Q" --decision-limit 0 --jobs 4 --metrics-json "$BM4" > "$B4"
if ! cmp -s "$B1" "$B4"; then
    echo "ci: budget-starved evaluate output differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
if [ "$(strip_timings "$BM1")" != "$(strip_timings "$BM4")" ]; then
    echo "ci: budget-starved timing-stripped metrics differ between --jobs 1 and --jobs 4" >&2
    exit 1
fi
grep -q 'solver gave up (decision budget exhausted)' "$B1" || {
    echo "ci: no budget-skip line at --decision-limit 0" >&2
    exit 1
}
grep -q '"solver.unknown_exits": *[1-9]' "$BM1" || {
    echo "ci: solver.unknown_exits is zero at --decision-limit 0" >&2
    exit 1
}
echo "ci: budget skips (reason text + unknown exits + jobs determinism) OK"

# Solve-memo leg: generate the running example on the two solve paths
# that run no incremental session, `--mode lazy` and `--use-input-db`,
# under two thread counts. The suites and the timing-stripped metrics must
# be byte-identical, and the memo must hit and miss as often as it always
# has (1/6 lazy, 11/10 on the input database): a key that misses an equal
# problem, or matches an unequal one, changes the counts. The input
# database's non-ASCII name must reach the suite intact.
tmpfiles IDB L1 L4 LM1 LM4
{
    cat examples/university.sql
    echo "INSERT INTO instructor VALUES (1, 'Wu', 10, 90000);"
    echo "INSERT INTO instructor VALUES (2, 'José', 20, 40000);"
    echo "INSERT INTO teaches VALUES (1, 101, 1, 2009);"
} > "$IDB"
# memo_leg NAME SCHEMA HITS MISSES FLAG...
memo_leg() {
    leg=$1 schema=$2 hit=$3 miss=$4
    shift 4
    ./target/release/xdata generate --schema "$schema" --query "$Q" "$@" \
        --jobs 1 --metrics-json "$LM1" > "$L1"
    ./target/release/xdata generate --schema "$schema" --query "$Q" "$@" \
        --jobs 4 --metrics-json "$LM4" > "$L4"
    if ! cmp -s "$L1" "$L4"; then
        echo "ci: $leg suite differs between --jobs 1 and --jobs 4" >&2
        exit 1
    fi
    if [ "$(strip_timings "$LM1")" != "$(strip_timings "$LM4")" ]; then
        echo "ci: $leg timing-stripped metrics differ between --jobs 1 and --jobs 4" >&2
        exit 1
    fi
    grep -q "\"core.solve_memo.hit\": *$hit," "$LM1" \
        && grep -q "\"core.solve_memo.miss\": *$miss," "$LM1" || {
        echo "ci: $leg solve memo did not hit $hit and miss $miss times" >&2
        grep 'core.solve_memo' "$LM1" >&2
        exit 1
    }
}
memo_leg lazy examples/university.sql 1 6 --mode lazy
memo_leg input-db "$IDB" 11 10 --use-input-db
grep -q "'José'" "$L1" || {
    echo "ci: the input-database suite lost the UTF-8 literal 'José'" >&2
    exit 1
}
echo "ci: solve memo off sessions (lazy + input db: memo counts + jobs determinism) OK"

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

# HAVING leg: generate a HAVING query whose MIN constant lies outside
# salary's default domain, under two thread counts. The suites and the
# timing-stripped metrics must be byte-identical, and the domain must
# widen to the constant so the original-query dataset exists. A candidate
# that writes `>=` for `>` must then FAIL: the `=` dataset separates them.
HG='SELECT dept_id, MIN(salary) FROM instructor GROUP BY dept_id HAVING'
HQ="$HG MIN(salary) > 5000 AND COUNT(*) >= 2"
HC="$HG MIN(salary) >= 5000 AND COUNT(*) >= 2"
tmpfiles HV1 HV4 HVM1 HVM4 HVG
./target/release/xdata generate --schema examples/university.sql \
    --query "$HQ" --jobs 1 --metrics-json "$HVM1" > "$HV1"
./target/release/xdata generate --schema examples/university.sql \
    --query "$HQ" --jobs 4 --metrics-json "$HVM4" > "$HV4"
if ! cmp -s "$HV1" "$HV4"; then
    echo "ci: HAVING suite differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
if [ "$(strip_timings "$HVM1")" != "$(strip_timings "$HVM4")" ]; then
    echo "ci: HAVING timing-stripped metrics differ between --jobs 1 and --jobs 4" >&2
    exit 1
fi
grep -q '^--- dataset [0-9]*: original query (non-empty result)$' "$HV1" || {
    echo "ci: the HAVING suite has no original-query dataset" >&2
    cat "$HV1" >&2
    exit 1
}
./target/release/xdata grade --schema examples/university.sql --query "$HQ" \
    --candidate "$HC" > "$HVG"
grep -q '^FAIL' "$HVG" || {
    echo "ci: the HAVING candidate with >= for > did not FAIL" >&2
    cat "$HVG" >&2
    exit 1
}
echo "ci: HAVING outside the default domain (original dataset + grade FAIL + jobs determinism) OK"

# Offset leg: generate a comparison whose offset lifts one side wholly out
# of the other's default domain, under two thread counts. The suites must
# be byte-identical, and the domains must widen until the two sides meet,
# so the original-query dataset and the `=` and `>` datasets exist.
OQ='SELECT * FROM instructor i, teaches t WHERE i.salary = t.year + 5000'
tmpfiles OF1 OF4
./target/release/xdata generate --schema examples/university.sql \
    --query "$OQ" --jobs 1 > "$OF1"
./target/release/xdata generate --schema examples/university.sql \
    --query "$OQ" --jobs 4 > "$OF4"
if ! cmp -s "$OF1" "$OF4"; then
    echo "ci: offset suite differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
for label in 'original query (non-empty result)' 'dataset with `=`' 'dataset with `>`'; do
    grep -q "^--- dataset [0-9]*: .*$label\$" "$OF1" || {
        echo "ci: the offset suite has no dataset labeled '$label'" >&2
        cat "$OF1" >&2
        exit 1
    }
done
echo "ci: offset comparison outside the default domain (datasets + jobs determinism) OK"

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

# Repeated-submission leg: batch-grade the sample pile twice over in one
# file under two thread counts. The reports must be byte-identical, and
# every verdict of the second copy must equal its first copy's apart from
# the candidate number and the ` dup` mark.
tmpfiles DBL D1 D4 DV
cat examples/submissions.sql examples/submissions.sql > "$DBL"
./target/release/xdata grade --schema examples/university.sql \
    --query "$GQ" --candidates "$DBL" --jobs 1 > "$D1"
./target/release/xdata grade --schema examples/university.sql \
    --query "$GQ" --candidates "$DBL" --jobs 4 > "$D4"
if ! cmp -s "$D1" "$D4"; then
    echo "ci: repeated-submission report differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
grep '^#' "$D1" | sed 's/^#[0-9]* *//; s/ dup\]$/]/' > "$DV"
n=$(($(wc -l < "$DV") / 2))
if [ "$n" -eq 0 ] || [ "$(head -n "$n" "$DV")" != "$(tail -n "$n" "$DV")" ]; then
    echo "ci: a repeated submission's verdict differs from its first copy's" >&2
    cat "$D1" >&2
    exit 1
fi
echo "ci: repeated submissions (verdicts equal their first copy + jobs determinism) OK"

# Grading budget leg: grade the same pile with a decision budget of 0 and
# no deadline, under two thread counts. Every target is a budget skip, so
# the partial suite has no datasets. The reports must be byte-identical,
# every candidate that parsed must carry the empty-suite label, and no
# line may blame a deadline that was never set.
tmpfiles GB1 GB4
./target/release/xdata grade --schema examples/university.sql --query "$GQ" \
    --candidates examples/submissions.sql --decision-limit 0 --jobs 1 > "$GB1"
./target/release/xdata grade --schema examples/university.sql --query "$GQ" \
    --candidates examples/submissions.sql --decision-limit 0 --jobs 4 > "$GB4"
if ! cmp -s "$GB1" "$GB4"; then
    echo "ci: budget-starved verdict report differs between --jobs 1 and --jobs 4" >&2
    exit 1
fi
EMPTY_LABEL='UNEVALUATED (partial suite has no datasets)'
grep -qF "$EMPTY_LABEL" "$GB1" || {
    echo "ci: no candidate is labeled '$EMPTY_LABEL' at --decision-limit 0" >&2
    exit 1
}
if grep '^#' "$GB1" | grep -v 'INVALID' | grep -vqF "$EMPTY_LABEL"; then
    echo "ci: a parsed candidate lacks '$EMPTY_LABEL' at --decision-limit 0" >&2
    exit 1
fi
if grep -q 'deadline expired' "$GB1"; then
    echo "ci: a budget-starved report without a deadline says 'deadline expired'" >&2
    exit 1
fi
echo "ci: grading budget skips (empty-suite label + jobs determinism) OK"

# Single-candidate budget leg: grade a LEFT OUTER JOIN against the inner
# join (the complete suite fails it) with decision budgets of 0 and 5, each
# under two thread counts. Single-candidate grading follows batch grading:
# at 0 the partial suite has no datasets, so the candidate gets the
# empty-suite label and no PASS; at 5 it agrees on the datasets left, and
# its PASS line carries the partial-suite marker.
GC='SELECT i.name, t.course_id FROM instructor i LEFT OUTER JOIN teaches t ON i.id = t.id'
tmpfiles S1 S4
for LIMIT in 0 5; do
    ./target/release/xdata grade --schema examples/university.sql --query "$GQ" \
        --candidate "$GC" --decision-limit "$LIMIT" --jobs 1 > "$S1"
    ./target/release/xdata grade --schema examples/university.sql --query "$GQ" \
        --candidate "$GC" --decision-limit "$LIMIT" --jobs 4 > "$S4"
    if ! cmp -s "$S1" "$S4"; then
        echo "ci: single-candidate grade differs between --jobs 1 and 4 at limit $LIMIT" >&2
        exit 1
    fi
    if [ "$LIMIT" = 0 ]; then
        grep -qF "$EMPTY_LABEL" "$S1" && ! grep -q 'PASS' "$S1" || {
            echo "ci: an empty partial suite must leave the candidate '$EMPTY_LABEL'" >&2
            cat "$S1" >&2
            exit 1
        }
    else
        grep -q '^PASS.* \[PARTIAL SUITE\]$' "$S1" || {
            echo "ci: a PASS on a partial suite must end in [PARTIAL SUITE]" >&2
            cat "$S1" >&2
            exit 1
        }
    fi
done
echo "ci: single-candidate grading on partial suites (labels + jobs determinism) OK"

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
