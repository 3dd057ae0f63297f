#!/usr/bin/env bash
# Fails if `format!(` appears on a consensus path: the non-test code of
# the op/receipt encoders (fi-core/src/ops.rs), of the byte codec
# (fi-core/src/codec.rs), of the state-leaf codecs every state root
# hashes (fi-core/src/engine/statemap.rs), of the snapshot formats a
# joining node restores from (fi-core/src/engine/snapshot.rs, whose bytes
# are pinned by golden digests), of the op and `Auto_*` task handlers
# that produce the receipts, events and rows every root hashes
# (fi-core/src/engine/{audit,batch,lifecycle,alloc}.rs) and of the block
# layer (fi-chain/src/block.rs), the `ProtocolEvent` impl
# (fi-core/src/types.rs) and `Engine::log` (fi-core/src/engine/mod.rs).
# Digests, state roots, block hashes, snapshot bytes and `ChainEvent`
# payloads hash canonical bytes, never formatted text.
#
# Run from the repository root: .github/scripts/no-format-on-consensus-paths.sh
set -euo pipefail

# Every line of a file before its `#[cfg(test)]` module.
non_test() {
    awk '/^#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$1"
}

# One item of a file: from the first line matching the regex to the line
# that closes it at the same indentation.
item() {
    awk -v pat="$2" '
        !on && $0 ~ pat { on = 1; match($0, /^ */); close_line = substr($0, 1, RLENGTH) "}" }
        on { print FILENAME ":" FNR ": " $0 }
        on && $0 == close_line { exit }
    ' "$1"
}

scanned=0
hits=""
scan() {
    local lines
    lines=$("$@")
    if [ -z "$lines" ]; then
        echo "::error::consensus-path gate found nothing to scan for: $*" >&2
        exit 1
    fi
    scanned=$((scanned + $(printf '%s\n' "$lines" | wc -l)))
    hits+=$(printf '%s\n' "$lines" | grep -F 'format!(' || true)$'\n'
}

scan non_test crates/fi-core/src/ops.rs
scan non_test crates/fi-core/src/codec.rs
scan non_test crates/fi-core/src/engine/statemap.rs
scan non_test crates/fi-core/src/engine/snapshot.rs
scan non_test crates/fi-core/src/engine/audit.rs
scan non_test crates/fi-core/src/engine/batch.rs
scan non_test crates/fi-core/src/engine/lifecycle.rs
scan non_test crates/fi-core/src/engine/alloc.rs
scan non_test crates/fi-chain/src/block.rs
scan item crates/fi-core/src/types.rs '^impl ProtocolEvent \{'
scan item crates/fi-core/src/engine/mod.rs '^    pub\(super\) fn log\('

if [ -n "${hits//$'\n'/}" ]; then
    echo "::error::format! on a consensus path (hash canonical bytes instead):" >&2
    printf '%s' "$hits" | grep . >&2
    exit 1
fi
echo "no format! in $scanned scanned consensus-path lines"
