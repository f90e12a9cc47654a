#!/usr/bin/env bash
# End-to-end checks of the xmlsel_tool command line: generate -> pack ->
# serve-file, multi-tenant serve (mapped and eager tenants, an unknown
# tenant, a whitespace-only query line, --memory-budget), and rejection
# of malformed numeric arguments with the usage exit code.
#
# Usage: tools/tool_cli_test.sh <path/to/xmlsel_tool>
set -uo pipefail

tool="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# expect_exit <code> <description> <command...>: runs the command with
# stdout/stderr captured in $work/out and $work/err.
expect_exit() {
  local want="$1" what="$2"
  shift 2
  "$@" > "$work/out" 2> "$work/err"
  local got=$?
  if [[ $got -ne $want ]]; then
    fail "$what: exit $got, want $want"
    sed 's/^/  stderr: /' "$work/err" >&2
  fi
}

expect_grep() {
  local pattern="$1" file="$2" what="$3"
  grep -qE -- "$pattern" "$file" || fail "$what: no line matching '$pattern'"
}

# --- generate -> pack -> serve-file ---------------------------------------
expect_exit 0 "generate" "$tool" generate xmark 3000
cp "$work/out" "$work/doc.xml"
[[ -s "$work/doc.xml" ]] || fail "generate wrote an empty document"

expect_exit 0 "pack" "$tool" pack "$work/doc.xml" "$work/doc.synopsis" 8
expect_grep "lossy layer: +[0-9]+ rules" "$work/out" "pack report"

expect_exit 0 "estimate" "$tool" estimate "$work/doc.xml" "//item//keyword" 8
expect_grep '^//item//keyword -> \[[0-9]+, [0-9]+\]' "$work/out" "estimate"
expect_grep '^exact: [0-9]+' "$work/out" "estimate exact count"

expect_exit 0 "serve-file" "$tool" serve-file "$work/doc.synopsis" \
  "//listitem//keyword" "/site/people/person"
expect_grep '^//listitem//keyword -> \[[0-9]+, [0-9]+\]$' "$work/out" \
  "serve-file first answer"
expect_grep '^/site/people/person -> \[[0-9]+, [0-9]+\]$' "$work/out" \
  "serve-file second answer"
expect_grep '^decode cache: [0-9]+/[0-9]+ rules decoded' "$work/out" \
  "serve-file decode cache line"

expect_exit 1 "serve-file parse error" "$tool" serve-file \
  "$work/doc.synopsis" "//a[("
expect_grep 'InvalidArgument' "$work/err" "serve-file parse error status"

# --- serve ----------------------------------------------------------------
printf '%s\n' "m //listitem//keyword" "ghost //item" "m   " "" \
  "e /site/people/person" "m /site/people/person" > "$work/requests"
expect_exit 1 "serve with an unknown tenant" "$tool" serve \
  "m=$work/doc.synopsis" "e=$work/doc.xml" < "$work/requests"
expect_grep "^ghost //item: NotFound" "$work/err" "serve unknown tenant"
answers="$(grep -E ' -> \[[0-9]+, [0-9]+\] \(v1\)$' "$work/out" \
  | cut -d' ' -f1,2)"
want_answers="$(printf '%s\n' "m //listitem//keyword" \
  "e /site/people/person" "m /site/people/person")"
[[ "$answers" == "$want_answers" ]] ||
  fail "serve answers out of input order: $answers"
expect_grep "^tenant 'm': v1 mapped" "$work/out" "serve mapped tenant report"
expect_grep "^tenant 'e': v1 eager" "$work/out" "serve eager tenant report"
expect_grep "budget unbounded$" "$work/out" "serve unbounded budget"

printf '%s\n' "m //listitem//keyword" "m  " > "$work/requests"
expect_exit 0 "serve with a whitespace-only query" "$tool" serve \
  "m=$work/doc.synopsis" < "$work/requests"

printf '%s\n' "m //listitem//keyword" "m //*" > "$work/requests"
expect_exit 0 "serve --memory-budget" "$tool" serve --memory-budget=2048 \
  "m=$work/doc.synopsis" < "$work/requests"
expect_grep "budget 2048 bytes$" "$work/out" "serve budget report"
resident="$(sed -nE 's/^decode cache: [0-9]+ rules \/ ([0-9]+) bytes.*/\1/p' \
  "$work/out")"
[[ -n "$resident" && "$resident" -le 2048 ]] ||
  fail "serve --memory-budget left '$resident' bytes resident"

expect_exit 2 "--memory-budget=0" "$tool" serve --memory-budget=0 \
  "m=$work/doc.synopsis" < /dev/null
expect_exit 2 "--memory-budget=abc" "$tool" serve --memory-budget=abc \
  "m=$work/doc.synopsis" < /dev/null

# --- malformed numeric arguments ------------------------------------------
expect_exit 2 "generate -5" "$tool" generate xmark -5
expect_exit 2 "generate abc" "$tool" generate xmark abc
expect_exit 2 "generate 0" "$tool" generate xmark 0
expect_exit 2 "generate 99999999999" "$tool" generate xmark 99999999999
expect_exit 2 "estimate kappa -3" "$tool" estimate "$work/doc.xml" "//a" -3
expect_exit 2 "pack kappa 5x" "$tool" pack "$work/doc.xml" \
  "$work/bad.synopsis" 5x
expect_exit 2 "compress kappa overflow" "$tool" compress "$work/doc.xml" \
  99999999999
expect_exit 2 "verify kappa empty" "$tool" verify "$work/doc.xml" ""
expect_grep "^usage:" "$work/err" "usage text on a bad number"
[[ ! -e "$work/bad.synopsis" ]] || fail "pack wrote an image on a bad kappa"

if [[ $failures -ne 0 ]]; then
  echo "$failures check(s) failed" >&2
  exit 1
fi
echo "all xmlsel_tool checks passed"
