#!/usr/bin/env bash
# Rust line counts per crate, split into program and test code.
#
#   src    lines of `src/**/*.rs`, minus `#[cfg(test)]` modules
#   test   lines of `tests/`, `benches/` and `examples/`, plus the
#          `#[cfg(test)]` modules inside `src/`
#
# Lines are physical lines (blank and comment lines count, as `wc -l`
# counts them). A `#[cfg(test)]` module runs from its attribute to the
# brace that closes the `mod` it annotates. The facade (the root package:
# `src/`, `tests/`, `examples/`) is one more row, and a total row closes
# the table. `benchmark/` is a separate workspace and not counted.
#
# usage: scripts/loc.sh [REPO_DIR]   (default: the checkout holding this script)
set -euo pipefail

repo="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$repo"

# Prints "<program lines> <test-module lines>" for the given files.
split_src() {
    awk '
        # Counts one line of a test module; clears `intest` when the
        # module ends: its block closed, or it was `mod tests;` (out of line).
        function module_line(   line, opens) {
            tst++
            line = $0
            opens = gsub(/\{/, "{", line)
            depth += opens - gsub(/\}/, "}", line)
            if (opens > 0) seen = 1
            if ((seen && depth <= 0) || (!seen && $0 ~ /;[[:space:]]*$/)) intest = 0
        }
        FNR == 1 { held = 0; intest = 0 }
        intest { module_line(); next }
        # Hold a `#[cfg(test)]` line and the attributes after it until the
        # item they annotate shows whether it is a module.
        /^[[:space:]]*#\[cfg\(test\)\]/ { held++; next }
        held && /^[[:space:]]*#\[/ { held++; next }
        held && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ {
            tst += held
            held = 0
            intest = 1
            depth = 0
            seen = 0
            module_line()
            next
        }
        { prog += held + 1; held = 0 }
        END { printf "%d %d\n", prog + 0, tst + 0 }
    ' "$@"
}

# Lines of every `.rs` file under the given directories (0 if none).
count_dirs() {
    local files=()
    local d
    for d in "$@"; do
        [[ -d "$d" ]] && while IFS= read -r -d '' f; do files+=("$f"); done \
            < <(find "$d" -name '*.rs' -print0)
    done
    if ((${#files[@]} == 0)); then
        echo 0
    else
        cat "${files[@]}" | wc -l
    fi
}

row() {
    local name="$1" dir="$2"
    local files=()
    while IFS= read -r -d '' f; do files+=("$f"); done \
        < <(find "$dir/src" -name '*.rs' -print0 2>/dev/null)
    local prog=0 tmod=0
    if ((${#files[@]} > 0)); then
        read -r prog tmod < <(split_src "${files[@]}")
    fi
    local outside
    outside=$(count_dirs "$dir/tests" "$dir/benches" "$dir/examples")
    printf '%-14s %8d %8d\n' "$name" "$prog" $((tmod + outside))
    total_src=$((total_src + prog))
    total_test=$((total_test + tmod + outside))
}

total_src=0
total_test=0
printf '%-14s %8s %8s\n' crate src test
for dir in crates/* crates/compat/*; do
    [[ -f "$dir/Cargo.toml" ]] || continue
    row "$(basename "$dir")" "$dir"
done
row facade .
printf '%-14s %8d %8d\n' total "$total_src" "$total_test"
