# Benchmark smoke test (ctest `benchmark_smoke`): runs every workload of
# s2fa_benchmark in --quick mode (about 1/50 of the full inputs, three
# timed reps) and checks the merged result file against BENCHMARK.json:
# every workload passed its correctness checks with nothing failed, and
# every end-to-end and per-layer metric BENCHMARK.json declares is present
# with the declared unit. Comparing the file with itself must then pass.
#
# Inputs (all -D): BENCH_BIN SPEC WORK_DIR
cmake_minimum_required(VERSION 3.20)

foreach(var BENCH_BIN SPEC WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "benchmark_smoke: missing -D${var}=...")
  endif()
endforeach()

set(OUT_DIR "${WORK_DIR}/out")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- 1. A quick run of all four workloads must pass its checks.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env "S2FA_BENCH_OUT=${OUT_DIR}"
          "${BENCH_BIN}" --quick
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out ERROR_VARIABLE bench_out)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "benchmark_smoke: s2fa_benchmark --quick failed (${bench_rc}):\n"
          "${bench_out}")
endif()

# --- 2. Every declared workload and metric is in the result, with its unit.
set(RESULT "${OUT_DIR}/benchmark_result.json")
file(READ "${RESULT}" result)
file(READ "${SPEC}" spec)
string(JSON workload_count LENGTH "${spec}" workloads)
math(EXPR last_workload "${workload_count} - 1")
foreach(w RANGE ${last_workload})
  string(JSON workload GET "${spec}" workloads ${w} name)
  string(JSON correct ERROR_VARIABLE json_err
         GET "${result}" workloads ${workload} correct)
  if(json_err)
    message(FATAL_ERROR "benchmark_smoke: no result for ${workload}")
  endif()
  string(JSON failed GET "${result}" workloads ${workload} failed)
  if(NOT correct OR NOT failed EQUAL 0)
    message(FATAL_ERROR
            "benchmark_smoke: ${workload} failed its correctness checks")
  endif()
  foreach(section end_to_end per_layer)
    if(section STREQUAL "end_to_end")
      set(key metrics)
    else()
      set(key layers)
    endif()
    string(JSON metric_count LENGTH "${spec}" ${section})
    math(EXPR last_metric "${metric_count} - 1")
    foreach(m RANGE ${last_metric})
      string(JSON metric GET "${spec}" ${section} ${m} name)
      string(JSON unit GET "${spec}" ${section} ${m} unit)
      string(JSON got ERROR_VARIABLE json_err
             GET "${result}" workloads ${workload} ${key} ${metric} unit)
      if(json_err)
        message(FATAL_ERROR
                "benchmark_smoke: ${workload} does not report ${metric}")
      endif()
      if(NOT got STREQUAL unit)
        message(FATAL_ERROR "benchmark_smoke: ${workload} reports ${metric} "
                            "in '${got}', BENCHMARK.json declares '${unit}'")
      endif()
    endforeach()
  endforeach()
endforeach()

# --- 3. compare reads the file and finds no regression against itself.
get_filename_component(SPEC_DIR "${SPEC}" DIRECTORY)
execute_process(
  COMMAND "${BENCH_BIN}" compare "${RESULT}" "${RESULT}"
  WORKING_DIRECTORY "${SPEC_DIR}"
  RESULT_VARIABLE compare_rc
  OUTPUT_VARIABLE compare_out ERROR_VARIABLE compare_out)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
          "benchmark_smoke: compare of a result with itself exited "
          "${compare_rc}:\n${compare_out}")
endif()

message(STATUS "benchmark_smoke: ${workload_count} workloads correct, "
               "every declared metric reported with its unit")
