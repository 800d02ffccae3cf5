# Bad-input regression for the `s2fa` command line: each malformed flag or
# environment value, unknown flag and missing value must exit 2 with a
# message naming the knob, before any work starts; and a valid flag must
# win over a malformed environment value of the same knob.
#
# Inputs (all -D): CLI_BIN
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED CLI_BIN)
  message(FATAL_ERROR "cli_bad_input: missing -DCLI_BIN=...")
endif()

# expect_rejected(<knob> [ENV NAME=VALUE] ARGS <s2fa args...>)
function(expect_rejected knob)
  cmake_parse_arguments(CASE "" "ENV" "ARGS" ${ARGN})
  set(command "${CLI_BIN}" ${CASE_ARGS})
  if(CASE_ENV)
    set(command "${CMAKE_COMMAND}" -E env "${CASE_ENV}" ${command})
  endif()
  execute_process(COMMAND ${command}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${knob}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    string(JOIN " " shown ${CASE_ENV} s2fa ${CASE_ARGS})
    message(FATAL_ERROR "cli_bad_input: '${shown}' exited ${rc} (want 2 "
                        "with stderr naming '${knob}'):\n${err}")
  endif()
endfunction()

expect_rejected(--requests ARGS serve AES --requests abc)
expect_rejected(--requests ARGS serve AES --requests 3000000000)
expect_rejected(--exec-threads ARGS serve AES --exec-threads 1.9)
expect_rejected(--shard ARGS serve AES --shard 2)
expect_rejected(--shards ARGS serve AES --shards)
# Fault bursts go through the chaos grammar, which rejects overlapping
# windows; only bare START:LEN windows are accepted, not other statements.
expect_rejected(--fault-burst ARGS serve AES --fault-burst 2:4,5:2)
expect_rejected(--fault-burst ARGS serve AES --fault-burst 1:2@0)
# Accelerator faults come only from the chaos plan: the old runtime flag is
# gone, and a fault-rate outside [0, 1] is a malformed plan.
expect_rejected(--accel-fault-rate ARGS run AES --accel-fault-rate 0.1)
expect_rejected(--chaos-plan ARGS serve AES --chaos-plan "fault-rate 1.5")
# Depth routing is the only shard-selection policy: the flag that picked
# one is gone.
expect_rejected(--routing ARGS serve AES --routing depth)
# The cluster's age hedge is the only host hedge, armed by `serve` itself:
# the service's quantile-hedge flag is gone.
expect_rejected(--hedge-quantile ARGS serve AES --hedge-quantile 0.9)
expect_rejected(S2FA_EVAL_TIMEOUT ENV S2FA_EVAL_TIMEOUT=garbage
                ARGS explore KMeans)
# Every proposal is evaluated: the flag that switched the evaluation memo
# is gone.
expect_rejected(--eval-cache ARGS explore LR --eval-cache on)
expect_rejected(S2FA_EVAL_RETRIES ENV S2FA_EVAL_RETRIES=-2
                ARGS explore KMeans)

# The flag wins, so the malformed environment value is never read.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env S2FA_EVAL_TIMEOUT=garbage
          "${CLI_BIN}" explore KMeans --minutes 20 --cores 2
          --eval-timeout 30
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cli_bad_input: --eval-timeout 30 over "
                      "S2FA_EVAL_TIMEOUT=garbage exited ${rc}:\n${err}")
endif()
