# Stream-smoke gate (ctest `stream_smoke`): runs the streaming-serving
# replay (bench_stream) in quick mode — the sub-capacity SLO, chaos
# zero-lost, ladder-vs-FIFO goodput, and determinism gates all still fire,
# at ~1/50th the record count — and pins the determinism phase's canonical
# outcome hash. Every latency the replay reports is simulated time, so the
# gates and the hash pin those values exactly; the replay's host time is
# measured by e2e_bench.
#
# Inputs (all -D): BENCH_BIN WORK_DIR
cmake_minimum_required(VERSION 3.20)

foreach(var BENCH_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "stream_smoke: missing -D${var}=...")
  endif()
endforeach()

# A quick-mode replay must pass its own exit-code gates (sub-capacity
# SLO, chaos zero-lost, overload accounting, ladder goodput beats FIFO,
# exec-thread determinism).
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "S2FA_BENCH_QUICK=1" "${BENCH_BIN}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out ERROR_VARIABLE bench_out)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "stream_smoke: bench_stream gates failed (${bench_rc}):\n"
          "${bench_out}")
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

message(STATUS "stream_smoke: gates pass, canonical hash pinned")
