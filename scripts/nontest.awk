# The one rule for "non-test code": prints each non-test line of the Rust
# files it is given as `FILE:LINE: text`. A file's test code starts at a
# column-0 `#[cfg(test)]` whose next line is `mod tests`; an earlier
# `#[cfg(test)]` (on a test-only `mod reference;`, or inside a doc comment)
# is an ordinary line and does not end the file's non-test code.
#
#   awk -f scripts/nontest.awk FILE...
FNR == 1 && held { held = 0; print hat }
held { held = 0; if ($0 ~ /^mod tests/) nextfile; print hat }
/^#\[cfg\(test\)\]$/ { held = 1; hat = FILENAME ":" FNR ": " $0; next }
{ print FILENAME ":" FNR ": " $0 }
END { if (held) print hat }
