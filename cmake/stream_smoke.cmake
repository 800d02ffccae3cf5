# Stream-smoke gate (ctest `stream_smoke`): runs the streaming-serving
# replay (bench_stream) in quick mode — the sub-capacity SLO, chaos
# zero-lost, ladder-vs-FIFO goodput, and determinism gates all still fire,
# at ~1/50th the record count — pins the determinism phase's canonical
# outcome hash, validates the stream entries it merges into the serving
# perf ledger, and exercises the `s2fa perf-diff` regression
# gate against the checked-in stream snapshots. As in cluster_smoke.cmake,
# the golden-vs-fresh comparison uses an enormous threshold so only schema
# breakage — never timing noise — can fail the smoke test; the regression
# path is proven with a synthetic snapshot whose overload entry is doubled.
#
# Inputs (all -D): BENCH_BIN CLI_BIN GOLDEN REGRESSED WORK_DIR
cmake_minimum_required(VERSION 3.20)

foreach(var BENCH_BIN CLI_BIN GOLDEN REGRESSED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "stream_smoke: missing -D${var}=...")
  endif()
endforeach()

set(LEDGER "${WORK_DIR}/BENCH_stream_smoke.json")
file(REMOVE "${LEDGER}")

# --- 1. A quick-mode replay must pass its own exit-code gates (sub-capacity
# SLO, chaos zero-lost, overload accounting, ladder goodput beats FIFO,
# exec-thread determinism) and emit the stream ledger entries.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "S2FA_BENCH_QUICK=1"
          "S2FA_PERF_LEDGER=${LEDGER}"
          "S2FA_GIT_REV=stream-smoke"
          "S2FA_BENCH_TIMESTAMP=stream-smoke"
          "${BENCH_BIN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out ERROR_VARIABLE bench_out)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "stream_smoke: bench_stream gates failed (${bench_rc}):\n"
          "${bench_out}")
endif()
if(NOT EXISTS "${LEDGER}")
  message(FATAL_ERROR "stream_smoke: no ledger written to ${LEDGER}")
endif()

# The determinism phase's canonical outcome hash is pinned: equal across
# exec threads is not enough, the replay itself must not drift.
set(STREAM_CANON_HASH "e1e3bee189947075")
string(REGEX MATCH "canonical hash ([0-9a-f]+)" hash_line "${bench_out}")
if(NOT CMAKE_MATCH_1 STREQUAL STREAM_CANON_HASH)
  message(FATAL_ERROR
          "stream_smoke: quick replay canonical hash '${CMAKE_MATCH_1}', "
          "pinned ${STREAM_CANON_HASH}:\n${bench_out}")
endif()

# --- 2. Schema + coverage: version marker, env stamping, and a ns/op entry
# for every stream phase the serving trajectory tracks.
file(READ "${LEDGER}" content)
string(JSON schema GET "${content}" schema)
if(NOT schema STREQUAL "s2fa-perf-ledger")
  message(FATAL_ERROR "stream_smoke: bad schema marker '${schema}'")
endif()
string(JSON version GET "${content}" version)
if(NOT version EQUAL 1)
  message(FATAL_ERROR "stream_smoke: unexpected ledger version '${version}'")
endif()
string(JSON rev GET "${content}" git_rev)
if(NOT rev STREQUAL "stream-smoke")
  message(FATAL_ERROR "stream_smoke: S2FA_GIT_REV not stamped (got '${rev}')")
endif()
foreach(bm
    stream.sub.record              # 0.5x-capacity stream, external p50
    stream.chaos.record            # kill/restart/spike mid-stream
    stream.overload.ladder.record) # 2x overload through the ladder
  string(JSON ns ERROR_VARIABLE json_err
         GET "${content}" benchmarks ${bm} ns_per_op)
  if(json_err)
    message(FATAL_ERROR "stream_smoke: ledger is missing ${bm}: ${json_err}")
  endif()
  if(NOT ns GREATER 0)
    message(FATAL_ERROR "stream_smoke: ${bm} ns_per_op '${ns}' is not > 0")
  endif()
endforeach()

# --- 3. The fresh ledger must be comparable against the golden snapshot
# (schema compatibility; the huge threshold keeps timing out of the gate).
execute_process(
  COMMAND "${CLI_BIN}" perf-diff "${GOLDEN}" "${LEDGER}"
          --threshold 1000000
  RESULT_VARIABLE diff_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
          "stream_smoke: perf-diff golden-vs-fresh failed (${diff_rc})")
endif()

# --- 4. Identical ledgers: exit 0. A >=threshold regression: exit 1.
execute_process(
  COMMAND "${CLI_BIN}" perf-diff "${GOLDEN}" "${GOLDEN}"
  RESULT_VARIABLE same_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR
          "stream_smoke: perf-diff on identical ledgers exited ${same_rc}")
endif()
execute_process(
  COMMAND "${CLI_BIN}" perf-diff "${GOLDEN}" "${REGRESSED}"
  RESULT_VARIABLE reg_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT reg_rc EQUAL 1)
  message(FATAL_ERROR
          "stream_smoke: perf-diff missed the synthetic regression "
          "(exited ${reg_rc}, wanted 1)")
endif()

message(STATUS "stream_smoke: gates pass, ledger valid, diff catches regressions")
