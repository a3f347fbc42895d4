#!/bin/sh
# Count the non-test lines of the library crates: for each Rust source
# file under crates/, the lines before its first `#[cfg(test)]`. Files
# that hold only tests are skipped: exec_tests.rs, proptests.rs and
# crates/xqgm/src/tests.rs. Prints one total per crate, then the sum.
#
#   scripts/non_test_lines.sh          # from the repository root
set -eu
cd "$(dirname "$0")/.."
find crates -name '*.rs' \
    ! -name exec_tests.rs ! -name proptests.rs ! -path crates/xqgm/src/tests.rs |
    sort |
    xargs awk '
        FNR == 1 { crate = FILENAME; sub(/^crates\//, "", crate); sub(/\/.*/, "", crate); live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        live { lines[crate]++; total++ }
        END {
            for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort"
            close("sort")
            printf "%-12s %6d\n", "total", total
        }'
