#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting, CLI smokes, the
# BENCH_*.json recorders and the gating benchmark's harness.
# Usage: scripts/check.sh
#
# Opt-in dynamic-verification lanes (CHECK_SANITIZERS=1):
#   - Miri over the mmap/CBT slice-reader tests (undefined-behavior
#     interpreter; mmap falls back to its buffered read under cfg(miri));
#   - ThreadSanitizer over the streaming/sweep channel tests (data-race
#     detection across the producer/worker fan-out).
# Each lane probes its toolchain first and SKIPs with a note when the
# component is unavailable (Miri and rust-src are rustup downloads, so
# offline machines and minimal CI images run everything else and report
# the lanes as skipped rather than failing).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> every crate inherits the workspace lint table"
# A crate without `[lints] workspace = true` gets none of the table's
# lints, and nothing else would say so (the lint canary lives in one
# crate only).
missing_lints=""
for manifest in crates/*/Cargo.toml; do
    grep -A1 -x '\[lints\]' "${manifest}" | grep -qx 'workspace = true' \
        || missing_lints="${missing_lints} ${manifest}"
done
if [ -n "${missing_lints}" ]; then
    echo "missing [lints] workspace = true in:${missing_lints}" >&2
    exit 1
fi

echo "==> no [[bench]] target and no criterion dependency"
# One measurement system: benchmark/ times, the tests check, and the
# three recorders in crates/bench/src/bin write BENCH_*.json. A bench
# target or a criterion dependency would be a fourth harness whose
# output nothing reads.
bench_manifests="$(find . -name Cargo.toml -not -path '*/target/*' -not -path './.bench_build/*' \
    -exec grep -lE '^\[\[bench\]\]|^criterion\b|[.]criterion\]' {} + || true)"
if [ -n "${bench_manifests}" ] || grep -q '^name = "criterion"$' Cargo.lock; then
    echo "a [[bench]] target or a criterion dependency is back in:${bench_manifests:- Cargo.lock}" >&2
    exit 1
fi

echo "==> cargo clippy --all-targets -- -D warnings (lint table + canary)"
cargo clippy --all-targets -- -D warnings

echo "==> one fan-out, one router, one pacer, one analyzer path, one by-volume driver, no held trace or whole-corpus generate, one Fig. 18 sweep (no second copy under crates/*/src), no hashed policy index"
# The death protocol and sticky routing live in crates/trace/src/workers.rs
# and the replay pacer in crates/replay/src/schedule.rs; codec/parallel.rs
# keeps its own, differently shaped, pipeline, whose one chunk loop
# (parse_chunk) serves both dialects' columnar batches. Anything else is a
# copy growing back. Library files only: binaries are not product fan-outs.
lib_sources="$(find crates/*/src -name '*.rs' -not -path '*/bin/*' | sort)"
# shellcheck disable=SC2086
channel_files="$(grep -lE '\bsync_channel(\(|::<)' ${lib_sources} | tr '\n' ' ' || true)"
if [ "${channel_files}" != "crates/trace/src/codec/parallel.rs crates/trace/src/workers.rs " ]; then
    echo "sync_channel may only be called in workers.rs and codec/parallel.rs; found: ${channel_files}" >&2
    exit 1
fi
for name in wait_until route_volume parse_chunk; do
    # shellcheck disable=SC2086
    defs="$(cat ${lib_sources} | grep -c "fn ${name}\b" || true)"
    if [ "${defs}" -gt 1 ]; then
        echo "fn ${name} is defined ${defs} times under crates/*/src; one engine, one copy" >&2
        exit 1
    fi
done
# One by-volume driver: analyze_volumes, defined once, beside the
# per-volume entry it loops over; a trace or a generator is only a
# source it takes volumes from by index. No other library file walks
# volumes through analyze_volume.
# shellcheck disable=SC2086
drivers="$(cat ${lib_sources} | grep -c 'fn analyze_volumes\b' || true)"
# shellcheck disable=SC2086
volume_callers="$(grep -l 'analyze_volume(' ${lib_sources} | tr '\n' ' ' || true)"
if [ "${drivers}" -ne 1 ] || [ "${volume_callers}" != "crates/analysis/src/analyzer.rs " ]; then
    echo "fn analyze_volumes must be defined once and analyze_volume( appear only in crates/analysis/src/analyzer.rs; found ${drivers} definition(s), analyze_volume( in: ${volume_callers}" >&2
    exit 1
fi
# One Fig. 18-extension decision: the paper run builds its policy
# grid in one place (Corpus::policy_sweep), and the report and the
# TSV export both read that one result.
report_sources="$(find crates/report/src -name '*.rs' | sort)"
# shellcheck disable=SC2086
grids="$(cat ${report_sources} | grep -c 'SweepGrid::new()' || true)"
if [ "${grids}" -ne 1 ]; then
    echo "SweepGrid::new() must appear once under crates/report/src (one Fig. 18-extension decision); found ${grids}" >&2
    exit 1
fi
# No held trace: an Analysis keeps metrics and the Table II bins, and
# the paper run keeps each corpus's generator: it analyzes the corpus
# volume by volume and regenerates the one volume Fig. 18 sweeps. A
# trace accessor, a Trace-typed field or a whole-corpus .generate()
# would let a whole corpus be held again.
if grep -n 'fn trace(' crates/core/src/workbench.rs >&2; then
    echo "crates/core/src/workbench.rs defines fn trace( (above); an Analysis holds metrics, not a trace" >&2
    exit 1
fi
# shellcheck disable=SC2086
if grep -nE '[.]trace[(][)]|^[[:space:]]*(pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*: .*\bTrace\b' ${report_sources} >&2; then
    echo "crates/report/src calls .trace() or declares a Trace-typed field (above); a corpus keeps its generator, not its trace" >&2
    exit 1
fi
# shellcheck disable=SC2086
if grep -n '[.]generate()' ${report_sources} >&2; then
    echo "crates/report/src calls .generate() (above); the paper run analyzes each corpus volume by volume (Analysis::from_generator)" >&2
    exit 1
fi
# Policies find blocks with one array load, by the dense number the
# caller's BlockNumbering gave them (crates/cache/src/numbering.rs): no
# hash table in a policy kernel, not even in its tests.
for kernel in list lru fifo clock lfu arc slru twoq; do
    file="crates/cache/src/${kernel}.rs"
    if [ ! -f "${file}" ] || grep -qE '\b(Fx)?Hash(Map|Set)\b' "${file}"; then
        echo "${file} is missing or names HashMap/HashSet/FxHashMap/FxHashSet; policy kernels index by BlockNo" >&2
        exit 1
    fi
done
# One block map: a BlockNumbering (crates/cache/src/numbering.rs) is
# the only chunk-keyed map; the analyzer, the LRU stack and the policies
# index plain Vecs by the number it gives a block.
# shellcheck disable=SC2046
chunk_consts="$(grep -nE '^[[:space:]]*(pub(\([a-z]+\))? )?const CHUNK_BLOCKS\b' $(find crates/*/src -name '*.rs' | sort) || true)"
# shellcheck disable=SC2046
chunk_maps="$(grep -lw 'chunk_index' $(find crates/*/src -name '*.rs' | sort) | tr '\n' ' ' || true)"
if [ "$(printf '%s\n' "${chunk_consts}" | grep -c .)" -ne 1 ] \
    || [ "${chunk_consts%%:*}" != "crates/cache/src/numbering.rs" ] \
    || [ "${chunk_maps}" != "crates/cache/src/numbering.rs " ]; then
    echo "CHUNK_BLOCKS must be defined once, in crates/cache/src/numbering.rs, and chunk_index appear only there (one block map); found: ${chunk_consts:-none}; chunk_index in: ${chunk_maps:-none}" >&2
    exit 1
fi
# The analyzer has one entry, observe_batch, and one implementation of
# each metric: no per-request twin beside it and no runtime-dispatched
# kernel (with its scalar twin) anywhere in library code.
analysis_sources="$(find crates/analysis/src -name '*.rs' | sort)"
# shellcheck disable=SC2086
entries="$(cat ${analysis_sources} | grep -c 'fn observe_batch\b' || true)"
# shellcheck disable=SC2086
if [ "${entries}" -ne 1 ] || grep -q 'fn observe\b' ${analysis_sources}; then
    echo "crates/analysis/src must define fn observe_batch once and no fn observe; one analyzer, one code path" >&2
    exit 1
fi
# shellcheck disable=SC2086
dispatch_files="$(grep -lE 'target_feature|is_x86_feature_detected' ${lib_sources} | tr '\n' ' ' || true)"
if [ -n "${dispatch_files}" ]; then
    echo "runtime-dispatched kernels are not allowed (one safe implementation); found in: ${dispatch_files}" >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> BENCH_*.json recorders run (smallest phase of each, no thresholds)"
# Timing is benchmark/'s job and correctness the tests'; this step only
# keeps the recorders from rotting unseen. A single phase prints one
# JSON line and writes no file.
./target/release/ingest_perf stream 1 > /dev/null
./target/release/cache_perf shards 1 > /dev/null
./target/release/replay_perf replay 1 1000 null identity > /dev/null

echo "==> cbs-convert --metrics smoke (registry export reaches stderr)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
printf '0,R,0,4096,1000\n1,W,4096,8192,2000\n' > "${tmpdir}/smoke.csv"
./target/release/cbs-convert alicloud "${tmpdir}/smoke.csv" "${tmpdir}/smoke.cbt" --metrics \
    2> "${tmpdir}/convert.err"
grep -q '"decode.records":{"type":"counter","value":2}' "${tmpdir}/convert.err" || {
    echo "cbs-convert --metrics did not export decode counters:" >&2
    cat "${tmpdir}/convert.err" >&2
    exit 1
}
./target/release/cbs-convert info "${tmpdir}/smoke.cbt" --metrics 2> "${tmpdir}/info.err" > /dev/null
grep -q '"cbt.records":{"type":"counter","value":2}' "${tmpdir}/info.err" || {
    echo "cbs-convert info --metrics did not export cbt counters:" >&2
    cat "${tmpdir}/info.err" >&2
    exit 1
}

echo "==> cbs-convert hostile-but-valid smoke (rows the row scanner refuses convert all the same; a malformed row names its line)"
# CRLF endings, a blank line, a `+`, a 25-digit zero-padded field and an
# extra trailing field are all valid rows: three of the four records take
# the general parser, none may be lost or stop the run.
printf '0,R,0,4096,1000\r\n\r\n+1,W,4096,8192,2000\r\n2,R,0000000000000000000008192,512,3000\r\n3,W,0,512,4000,extra\r\n' \
    > "${tmpdir}/hostile.csv"
./target/release/cbs-convert alicloud "${tmpdir}/hostile.csv" "${tmpdir}/hostile.cbt" \
    2> "${tmpdir}/hostile.err"
grep -q ' 4 records .* 3 general-path lines' "${tmpdir}/hostile.err" || {
    echo "cbs-convert lost or miscounted hostile-but-valid rows:" >&2
    cat "${tmpdir}/hostile.err" >&2
    exit 1
}
./target/release/cbs-convert info "${tmpdir}/hostile.cbt" | grep -qx 'records  4' || {
    echo "cbs-convert info: hostile.cbt does not hold 4 records" >&2
    exit 1
}
# MSRC: a header, two interleaved hosts, one disk spelled `0` and `00`.
printf 'Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n1000,hm,1,Read,0,512,10\n2000,src1,0,Write,8192,4096,10\n3000,hm,1,Write,512,512,10\n4000,src1,00,Read,8192,4096,10\n' \
    > "${tmpdir}/hosts.csv"
./target/release/cbs-convert msrc "${tmpdir}/hosts.csv" "${tmpdir}/hosts.cbt" \
    --volumes "${tmpdir}/hosts.names" 2> /dev/null
./target/release/cbs-convert info "${tmpdir}/hosts.cbt" | grep -qx 'records  4' || {
    echo "cbs-convert info: hosts.cbt does not hold 4 records" >&2
    exit 1
}
printf '0,hm_1\n1,src1_0\n' | diff -u - "${tmpdir}/hosts.names" || {
    echo "cbs-convert msrc --volumes: sidecar differs" >&2
    exit 1
}
printf '0,R,0,4096,1000\n\n1,W,4096\n2,R,0,512,3000\n' > "${tmpdir}/malformed.csv"
if ./target/release/cbs-convert alicloud "${tmpdir}/malformed.csv" "${tmpdir}/malformed.cbt" \
    2> "${tmpdir}/malformed.err"; then
    echo "cbs-convert accepted a row with a missing field" >&2
    exit 1
fi
grep -q 'at line 3:' "${tmpdir}/malformed.err" || {
    echo "cbs-convert did not name the malformed row's one-based line (3):" >&2
    cat "${tmpdir}/malformed.err" >&2
    exit 1
}

echo "==> gating benchmark harness (its own tests + benchmark/run.sh --quick)"
# benchmark/ is a package of its own with path dependencies on
# crates/*: a change to a crate's public API compiles here or the PR
# driver's gate is broken. --quick runs every workload once at smoke
# sizes, verify stage and digests included (< 10 s after the build);
# --out keeps it from overwriting a real run in benchmark/out.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --quick --out "${tmpdir}/bench-quick" > /dev/null 2> "${tmpdir}/bench-quick.log" || {
    cat "${tmpdir}/bench-quick.log" >&2
    exit 1
}

if [ "${CHECK_SANITIZERS:-0}" = "1" ]; then
    echo "==> sanitizer lanes (CHECK_SANITIZERS=1)"

    if cargo +nightly miri --version > /dev/null 2>&1; then
        echo "==> miri: mmap + CBT slice-reader"
        # The unsafe surface Miri can interpret: the CBT slice reader's
        # in-place decode over (under Miri: buffered) mappings.
        cargo +nightly miri test -p cbs-trace mmap
        cargo +nightly miri test -p cbs-trace cbt::slice
    else
        echo "SKIP miri lane: cargo +nightly miri unavailable" \
             "(rustup component add --toolchain nightly miri)"
    fi

    if rustup component list --toolchain nightly 2> /dev/null \
            | grep -q 'rust-src.*(installed)'; then
        echo "==> tsan: streaming/sweep channel tests"
        # -Zbuild-std rebuilds std with the sanitizer so the mpsc
        # internals are instrumented too, not just our crates.
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std \
            --target x86_64-unknown-linux-gnu \
            -p cbs-core --test channel_stress
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std \
            --target x86_64-unknown-linux-gnu \
            -p cbs-cache sweep
    else
        echo "SKIP tsan lane: nightly rust-src not installed" \
             "(rustup component add --toolchain nightly rust-src)"
    fi
else
    echo "NOTE: sanitizer lanes off (opt in with CHECK_SANITIZERS=1)"
fi

echo "OK: all checks passed"
