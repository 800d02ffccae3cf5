# Perf-smoke gate (ctest `perf_smoke`): runs the component microbenchmarks
# in quick mode, validates the perf ledger they emit against the schema and
# required coverage, and exercises the `s2fa perf-diff` regression gate
# against the checked-in golden snapshots. The golden-vs-fresh comparison
# uses an enormous threshold so only schema breakage — never timing noise —
# can fail the smoke test; the regression path is proven with a synthetic
# snapshot whose Merlin entry is doubled.
#
# The committed repo-root micro ledger (COMMITTED) is held to the same
# bar: it must stay loadable, schema-compatible, and coverage-complete, so
# a PR can never commit a ledger the gate itself cannot read.
#
# Inputs (all -D): BENCH_BIN CLI_BIN GOLDEN REGRESSED COMMITTED WORK_DIR
cmake_minimum_required(VERSION 3.20)

foreach(var BENCH_BIN CLI_BIN GOLDEN REGRESSED COMMITTED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "perf_smoke: missing -D${var}=...")
  endif()
endforeach()

set(LEDGER "${WORK_DIR}/BENCH_micro_smoke.json")
file(REMOVE "${LEDGER}")

# --- 1. A fresh quick-mode run must emit the ledger.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "S2FA_PERF_LEDGER=${LEDGER}"
          "S2FA_GIT_REV=perf-smoke"
          "S2FA_BENCH_TIMESTAMP=perf-smoke"
          "${BENCH_BIN}" --benchmark_min_time=0.01
  RESULT_VARIABLE bench_rc
  OUTPUT_QUIET ERROR_QUIET)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "perf_smoke: bench_micro_components failed (${bench_rc})")
endif()
if(NOT EXISTS "${LEDGER}")
  message(FATAL_ERROR "perf_smoke: no ledger written to ${LEDGER}")
endif()

# --- 2. Schema + coverage: version marker, env stamping, and a ns/op entry
# for every component the paper's DSE loop exercises.
file(READ "${LEDGER}" content)
string(JSON schema GET "${content}" schema)
if(NOT schema STREQUAL "s2fa-perf-ledger")
  message(FATAL_ERROR "perf_smoke: bad schema marker '${schema}'")
endif()
string(JSON version GET "${content}" version)
if(NOT version EQUAL 1)
  message(FATAL_ERROR "perf_smoke: unexpected ledger version '${version}'")
endif()
string(JSON rev GET "${content}" git_rev)
if(NOT rev STREQUAL "perf-smoke")
  message(FATAL_ERROR "perf_smoke: S2FA_GIT_REV not stamped (got '${rev}')")
endif()
foreach(bm
    BM_InterpreterBatch         # bytecode interpreter (64 records)
    BM_KirEvalBatch             # kernel-IR evaluation (one batch)
    BM_BlazeMapPartialBatch     # Blaze map of a short, padded batch
    BM_MerlinTransform          # Merlin transform
    BM_HlsEstimateSmallKernel   # HLS estimator
    BM_HlsEstimateView          # HLS estimator on a design overlay
    BM_SerializationRoundTrip   # (de)serialization
    BM_FullDesignPointEvaluation)  # tuner round trip
  string(JSON ns ERROR_VARIABLE json_err
         GET "${content}" benchmarks ${bm} ns_per_op)
  if(json_err)
    message(FATAL_ERROR "perf_smoke: ledger is missing ${bm}: ${json_err}")
  endif()
  if(NOT ns GREATER 0)
    message(FATAL_ERROR "perf_smoke: ${bm} ns_per_op '${ns}' is not > 0")
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
          "perf_smoke: perf-diff golden-vs-fresh failed (${diff_rc})")
endif()

# --- 4. Identical ledgers: exit 0. A >=threshold regression: exit 1.
execute_process(
  COMMAND "${CLI_BIN}" perf-diff "${GOLDEN}" "${GOLDEN}"
  RESULT_VARIABLE same_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR
          "perf_smoke: perf-diff on identical ledgers exited ${same_rc}")
endif()
execute_process(
  COMMAND "${CLI_BIN}" perf-diff "${GOLDEN}" "${REGRESSED}"
  RESULT_VARIABLE reg_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT reg_rc EQUAL 1)
  message(FATAL_ERROR
          "perf_smoke: perf-diff missed the synthetic regression "
          "(exited ${reg_rc}, wanted 1)")
endif()

# --- 5. The committed repo-root ledger must parse, carry the same
# coverage, and diff cleanly against a fresh run (huge threshold again:
# machines differ; only schema/coverage rot can fail here).
if(NOT EXISTS "${COMMITTED}")
  message(FATAL_ERROR "perf_smoke: committed ledger ${COMMITTED} is missing")
endif()
file(READ "${COMMITTED}" committed_content)
foreach(bm
    BM_InterpreterBatch
    BM_KirEvalBatch
    BM_BlazeMapPartialBatch
    BM_MerlinTransform
    BM_HlsEstimateSmallKernel
    BM_HlsEstimateView
    BM_SerializationRoundTrip
    BM_FullDesignPointEvaluation)
  string(JSON ns ERROR_VARIABLE json_err
         GET "${committed_content}" benchmarks ${bm} ns_per_op)
  if(json_err)
    message(FATAL_ERROR
            "perf_smoke: committed ledger is missing ${bm}: ${json_err}")
  endif()
endforeach()
execute_process(
  COMMAND "${CLI_BIN}" perf-diff "${COMMITTED}" "${LEDGER}"
          --threshold 1000000
  RESULT_VARIABLE committed_rc OUTPUT_QUIET ERROR_QUIET)
if(NOT committed_rc EQUAL 0)
  message(FATAL_ERROR
          "perf_smoke: perf-diff committed-vs-fresh failed (${committed_rc})")
endif()

message(STATUS "perf_smoke: ledger valid, gate catches regressions")
