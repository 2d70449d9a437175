#!/usr/bin/env bash
# Contract test for flexiwalker_cli's flag table: strict value parsing, the
# mode gate (a flag given in a mode, or with an engine, where it has no
# effect is a usage error), the distinct exit codes, and that one-shot runs
# honour every FlexiWalker flag the serving modes do.
#
#   usage: cli_flags_test.sh <path to flexiwalker_cli>
set -u

cli=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
jit=(--jit-cache-dir "$tmp/jit")
failures=0

fail() {
  echo "FAIL: $*"
  sed 's/^/  | /' "$tmp/log"
  failures=$((failures + 1))
}

# expect <exit code> <stdin text> <args...>
expect() {
  local want=$1 input=$2
  shift 2
  printf '%b' "$input" | "$cli" "$@" > "$tmp/log" 2>&1
  local got=$?
  [ "$got" = "$want" ] || fail "want exit $want, got $got: $*"
}

yt=(--dataset YT --threads 2)

# The CI "CLI dispensation flags smoke" lines.
expect 0 "" "${yt[@]}" --workload deepwalk --queries 256 --wavefront 16
expect 1 "" "${yt[@]}" --workload deepwalk --queries 256 --chunk 64
expect 1 "" "${yt[@]}" --workload deepwalk --steal off
expect 1 "" "${yt[@]}" --workload deepwalk --wavefront 999
expect 1 "" "${yt[@]}" --workload deepwalk --engine flowwalker --wavefront 8
expect 0 "" "${yt[@]}" --workload deepwalk --queries 256 --block-bytes 4096 --cache-blocks 2
expect 0 "" "${yt[@]}" --workload ppr --queries 128 --cache-blocks 1
expect 1 "" "${yt[@]}" --workload deepwalk --block-bytes 512
expect 1 "" "${yt[@]}" --workload deepwalk --cache-blocks 0
expect 1 "" "${yt[@]}" --workload deepwalk --engine thunderrw --cache-blocks 4
expect 1 "" "${yt[@]}" --workload node2vec --cache-blocks 4
expect 1 "" "${yt[@]}" --workload deepwalk --serve --cache-blocks 4
expect 0 "" "${yt[@]}" --workload node2vec --queries 256 --jit on "${jit[@]}"
expect 0 "" "${yt[@]}" --workload autoregressive --queries 256 --jit auto "${jit[@]}"
expect 0 "" "${yt[@]}" --workload temporal-decay --queries 256 --jit on "${jit[@]}"
expect 1 "" "${yt[@]}" --workload deepwalk --jit maybe
expect 1 "" "${yt[@]}" --workload deepwalk --engine flowwalker --jit on
expect 1 "" "${yt[@]}" --workload deepwalk --engine knightking --jit-cache-dir "$tmp/x"
expect 1 "" "${yt[@]}" --workload deepwalk --queries 16 --request-timeout-ms 500
expect 1 "" "${yt[@]}" --workload deepwalk --queries 16 --retries 2
expect 1 "" "${yt[@]}" --workload deepwalk --queries 16 --deadline-us 1000
expect 1 "" "${yt[@]}" --workload deepwalk --queries 16 --drain-ms 100
expect 1 "" "${yt[@]}" --workload deepwalk --retries 9999
expect 1 "" "${yt[@]}" --workload deepwalk --request-timeout-ms never
expect 1 "" "${yt[@]}" --workload deepwalk --drain-ms 9999999999

# Strict value parsing: numbers take no sign or trailing garbage and stay in
# range, names must be known, and a --graph file must exist and parse.
expect 1 "" "${yt[@]}" --workload deepwalk --queries -5
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4x
expect 1 "" "${yt[@]}" --workload deepwalk --length abc
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --seed 12abc
expect 1 "" --dataset YT --workload deepwalk --queries 4 --threads 257
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --weights pareto --alpha two
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --weights heavy
expect 1 "" "${yt[@]}" --dataset XX --workload deepwalk --queries 4
expect 1 "" --graph "$tmp/missing.txt" --threads 2 --workload deepwalk --queries 4
printf '0 1\n1 x\n' > "$tmp/malformed.txt"
expect 1 "" --graph "$tmp/malformed.txt" --threads 2 --workload deepwalk --queries 4
expect 1 "0 1\n" --connect 7331x
grep -q "bad --connect port" "$tmp/log" || fail "--connect 7331x was not rejected as a bad port"
expect 1 "" "${yt[@]}" --workload deepwalk --queries
expect 1 "" "${yt[@]}" --workload deepwalk --bogus
expect 0 "" --help
expect 0 "" -h

# One negative per mode gate.
expect 1 "0 1\n" "${yt[@]}" --workload deepwalk --serve --queries 4
expect 1 "" "${yt[@]}" --workload deepwalk --listen 0 --serve
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --coalesce-us 5
# --coalesce-us (the coalescer's wait bound) belongs to --listen; stdin EOF
# stops the server at once. --adaptive-window is not a flag.
expect 0 "" "${yt[@]}" --workload deepwalk --listen 0 --coalesce-us 5
grep -q "wait bound 5 us" "$tmp/log" || fail "--listen banner does not report the wait bound"
expect 1 "" "${yt[@]}" --workload deepwalk --listen 0 --adaptive-window on
grep -q "unknown flag: --adaptive-window" "$tmp/log" ||
  fail "--adaptive-window was not rejected as an unknown flag"
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --pipeline 2
expect 1 "0 1\n" --connect 7331 --wavefront 8
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --workload-id 1
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --engine flowwalker --static-cache

# Exit 2: a serving mode with a baseline engine. Exit 3: malformed stdin.
expect 2 "0 1\n" "${yt[@]}" --workload deepwalk --serve --engine flowwalker
expect 2 "" "${yt[@]}" --workload deepwalk --listen 0 --engine flowwalker
expect 3 "0 x1\n" "${yt[@]}" --workload deepwalk --serve

# --static-cache reaches one-shot runs: the one-shot walk must match the
# served one byte for byte, and differ from the uncached walk.
expect 0 "" "${yt[@]}" --workload deepwalk --queries 4 --static-cache --out "$tmp/oneshot.txt"
expect 0 "0 1 2 3\n" "${yt[@]}" --workload deepwalk --serve --static-cache --out "$tmp/served.txt"
expect 0 "" "${yt[@]}" --workload deepwalk --queries 4 --out "$tmp/uncached.txt"
cmp -s "$tmp/oneshot.txt" "$tmp/served.txt" ||
  fail "one-shot --static-cache walks differ from served --static-cache walks"
cmp -s "$tmp/oneshot.txt" "$tmp/uncached.txt" &&
  fail "one-shot --static-cache walks equal the uncached walks"
# The out-of-core tier cannot build whole-graph alias tables.
expect 1 "" "${yt[@]}" --workload deepwalk --queries 4 --static-cache --cache-blocks 4

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all CLI flag cases pass"
