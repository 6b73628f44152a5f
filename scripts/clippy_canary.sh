#!/usr/bin/env bash
# Keeps every `disallowed-*` entry of the workspace's clippy.toml files
# falsifiable. It lints `scripts/clippy-canary`, which holds one known-bad
# line per entry, under each file that scopes the rules (the root,
# `crates/mapreduce`, `crates/core`), and fails unless each entry of that
# file fires exactly once and nothing else fires. A line for an entry that
# only one file holds (core's clock, thread-identity and hash-iteration
# bans) fires under that file alone.
#
# A misspelt path fires nowhere, so it fails here. Clippy itself only warns
# that such a path "does not refer to a reachable function", and
# `-D warnings` does not turn that warning into an error. The last leg
# checks that this script catches one, on a copy of the root file.
# Usage: scripts/clippy_canary.sh
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
target="$root/target/clippy-canary"

# check CONF_DIR NAME: lint the canary under CONF_DIR/clippy.toml; return
# non-zero, naming each offending entry, unless each fired exactly once.
check() {
    local conf="$1" name="$2" out entries entry fired warnings status=0
    out="$(CLIPPY_CONF_DIR="$conf" cargo clippy --offline --quiet \
        --manifest-path "$root/scripts/clippy-canary/Cargo.toml" \
        --target-dir "$target/$name" --message-format=short 2>&1)" || {
        echo "$out"
        return 1
    }
    mapfile -t entries < <(sed -n 's/^ *{ *path = "\([^"]*\)".*/\1/p' "$conf/clippy.toml")
    if [[ ${#entries[@]} -eq 0 ]]; then
        echo "    $name: no disallowed-* entries found"
        return 1
    fi
    for entry in "${entries[@]}"; do
        fired="$(grep -cF -e "disallowed method \`$entry\`" -e "disallowed type \`$entry\`" <<<"$out" || true)"
        if [[ "$fired" != 1 ]]; then
            echo "    $name: $entry fired $fired time(s)"
            status=1
        fi
    done
    warnings="$(grep -c ': warning: ' <<<"$out" || true)"
    if [[ "$warnings" != "${#entries[@]}" ]]; then
        echo "    $name: $warnings warning(s) for ${#entries[@]} entries:"
        echo "$out"
        status=1
    fi
    [[ "$status" != 0 ]] || echo "    $name: ${#entries[@]} entries, each fired once"
    return "$status"
}

check "$root" root
check "$root/crates/mapreduce" mapreduce
check "$root/crates/core" core

typo="$(mktemp -d)"
trap 'rm -rf "$typo"' EXIT
sed 's|"std::thread::spawn"|"std::thread::spwan"|' clippy.toml >"$typo/clippy.toml"
if check "$typo" typo >/dev/null; then
    echo "    a misspelt entry (std::thread::spwan) was not caught"
    exit 1
fi
echo "    a misspelt entry (std::thread::spwan) fails the canary"
echo "clippy canary: every disallowed-* entry fires exactly once"
