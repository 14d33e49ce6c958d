#!/usr/bin/env bash
# Static checks for the first-party crates: formatting and lints, plus the
# tests of the crossbar crate, the differential tests that pin its MVM fast
# paths to the bit-serial reference (tests/crossbar_reference.rs in the
# root package), the core crate (plan pricing, compiler, chip planning) and
# the lint crate (rule fixtures and the live-workspace check).
#
# Offline-tolerant: runs with --offline against the in-repo vendor/ crates,
# and each tool is skipped with a notice when its rustup component is not
# installed (e.g. a minimal CI image), rather than failing the script.
#
# Vendored dependency stand-ins under vendor/ are workspace members but are
# intentionally NOT checked here: they mirror upstream-crate idioms, not this
# repository's style.
set -u

cd "$(dirname "$0")/.."

FIRST_PARTY=(
    reram-suite
    reram-tensor
    reram-telemetry
    reram-crossbar
    reram-nn
    reram-datasets
    reram-gpu
    reram-core
    reram-serve
    reram-bench
    reram-lint
)

status=0

if cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    for pkg in "${FIRST_PARTY[@]}"; do
        cargo fmt -p "$pkg" --check || status=1
    done
else
    echo "== rustfmt not installed; skipping format check =="
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy -D warnings =="
    pkg_flags=()
    for pkg in "${FIRST_PARTY[@]}"; do
        pkg_flags+=(-p "$pkg")
    done
    cargo clippy --offline --all-targets "${pkg_flags[@]}" -- -D warnings || status=1
else
    echo "== clippy not installed; skipping lint check =="
fi

echo "== reram-lint (architectural invariants) =="
cargo run --offline -q -p reram-lint || status=1

echo "== reram-lint --plans (lowered-plan invariants) =="
cargo run --offline -q -p reram-lint -- --plans || status=1

echo "== cargo test -p reram-crossbar =="
cargo test -q --offline -p reram-crossbar || status=1

echo "== cargo test --test crossbar_reference (fast paths vs reference) =="
cargo test -q --offline --test crossbar_reference || status=1

echo "== cargo test -p reram-core -p reram-lint =="
cargo test -q --offline -p reram-core -p reram-lint || status=1

echo "== cargo build --examples =="
cargo build --offline -q --examples || status=1

if rustdoc --version >/dev/null 2>&1; then
    echo "== cargo doc -D warnings =="
    pkg_flags=()
    for pkg in "${FIRST_PARTY[@]}"; do
        pkg_flags+=(-p "$pkg")
    done
    RUSTDOCFLAGS="-D warnings" cargo doc --offline -q --no-deps "${pkg_flags[@]}" || status=1
else
    echo "== rustdoc not installed; skipping doc check =="
fi

if [ "$status" -ne 0 ]; then
    echo "checks FAILED"
else
    echo "checks passed"
fi
exit $status
