#!/usr/bin/env bash
# Build-and-test gate for emdbg.
#
#   scripts/check.sh                 # release build (fails on any
#                                    #   warning) + full test suite
#   scripts/check.sh asan            # AddressSanitizer build + tests
#   scripts/check.sh tsan            # ThreadSanitizer build + the
#                                    #   thread-pool / parallel-matcher /
#                                    #   incremental / session tests (the
#                                    #   concurrent paths; EMDBG_TSAN_ALL=1
#                                    #   runs the whole suite)
#   scripts/check.sh ubsan           # UBSan build + the arithmetic-heavy
#                                    #   and budget/governor tests
#                                    #   (EMDBG_UBSAN_ALL=1 = whole suite)
#   scripts/check.sh lint            # source lints only (no build)
#   scripts/check.sh all             # lint, release, asan, tsan, then ubsan
#
# Each mode uses its own build directory (build/, build-asan/,
# build-tsan/, build-ubsan/) so switching sanitizers never requires a
# clean; the sanitizer modes configure through the CMake presets in
# CMakePresets.json.

set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

# The tests that exercise concurrency: the work-stealing pool itself and
# everything that fans out over it (parallel matcher, pooled incremental
# re-matching, multi-threaded sessions, prewarm, cancellation drains),
# plus the serve layer (worker pool + poll loop + per-session queues),
# its wire protocol, the soak test, and fault injection (its registry is
# read from every worker thread).
tsan_filter='ThreadPool|Parallel|WorkerPool|MultiThreaded|Cancel'
tsan_filter+='|Server|Soak|Wire|SessionDigest|Fault'

# UBSan focuses on the arithmetic-heavy kernels (similarity, CRC,
# bit-parallel Levenshtein, TF-IDF weights) and the resource-governor
# accounting, whose size_t charge/rollback/saturation paths are exactly
# where unsigned wraparound bugs would live.
ubsan_filter='Similarity|Levenshtein|Jaro|Cosine|Tfidf|SoftTfidf|Crc32c'
ubsan_filter+='|Numeric|MongeElkan|Alignment|Interner|IdKernels'
ubsan_filter+='|MemoryBudget|BudgetFault|Governor|Memo|Bitmap'

# The text and blocking layers must not depend on the process locale:
# <cctype> classification and case calls follow LC_CTYPE (a Latin-1 locale
# calls 0xC0 a letter and folds it to 0xE0), which would make tokens,
# scores and candidate pairs differ between processes. Use the ASCII
# helpers in src/util/string_util.h instead.
lint() {
  echo "==> [lint] locale-free text and blocking layers"
  local pattern='<cctype>|<ctype\.h>|(^|[^[:alnum:]_])(std::)?(is(alnum|alpha|blank|cntrl|digit|graph|lower|print|punct|space|upper|xdigit)|to(lower|upper))[[:space:]]*\('
  if grep -rnE "$pattern" src/text src/block; then
    echo "lint: <cctype> classification or case call in src/text or" \
         "src/block (use IsAscii*/AsciiTo* from src/util/string_util.h)" >&2
    exit 1
  fi
}

run_mode() {
  local mode="$1" dir
  case "$mode" in
    release) dir=build ;;
    asan)    dir=build-asan ;;
    tsan)    dir=build-tsan ;;
    ubsan)   dir=build-ubsan ;;
    *) echo "unknown mode '$mode' (want release, asan, tsan, ubsan, or all)" >&2
       exit 2 ;;
  esac

  echo "==> [$mode] configure"
  if [ "$mode" = release ]; then
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  else
    cmake --preset "$mode" >/dev/null
  fi

  echo "==> [$mode] build"
  if [ "$mode" = release ]; then
    # The release build stays warning-free: any compiler or linker warning
    # it prints fails the check. Only the files this build compiles are
    # seen, so CI (a clean tree) checks every one.
    local log="$dir/build.log"
    cmake --build "$dir" -j "$jobs" 2>&1 | tee "$log"
    if grep -q "warning:" "$log"; then
      echo "release build printed warnings:" >&2
      grep "warning:" "$log" >&2
      exit 1
    fi
  else
    cmake --build "$dir" -j "$jobs"
  fi

  echo "==> [$mode] test"
  if [ "$mode" = tsan ] && [ "${EMDBG_TSAN_ALL:-0}" != 1 ]; then
    ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
      -R "$tsan_filter"
  elif [ "$mode" = ubsan ] && [ "${EMDBG_UBSAN_ALL:-0}" != 1 ]; then
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
      ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
      -R "$ubsan_filter"
  else
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  fi
}

case "${1:-release}" in
  lint)
    lint
    ;;
  all)
    lint
    run_mode release
    run_mode asan
    run_mode tsan
    run_mode ubsan
    ;;
  *)
    run_mode "${1:-release}"
    ;;
esac

echo "==> all checks passed"
