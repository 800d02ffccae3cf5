# Fault-injected explore smoke (ctest `cli_explore_resilience_smoke`): runs
# `s2fa explore LR --fault-rate 0.3` three times — without a journal, with
# a fresh `--resume-journal`, and resumed from that journal — and checks
# that
#   * the journaled run's `resilience:` line counts crash, timeout and
#     garbage failures, all > 0;
#   * the resumed run re-uses a non-zero number of journaled evaluations;
#   * all three runs print byte-identical stdout from the `scheduler:` line
#     onward (resuming replays the same search, the journal only skips the
#     re-paid synthesis jobs).
#
# Inputs (all -D): CLI_BIN WORK_DIR
cmake_minimum_required(VERSION 3.20)

foreach(var CLI_BIN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "explore_resilience_smoke: missing -D${var}=...")
  endif()
endforeach()

set(JOURNAL "${WORK_DIR}/explore_resilience_smoke.jsonl")
file(REMOVE "${JOURNAL}")

# explore(<out_var> [journal args...]): stdout of one run; fails the test
# on a non-zero exit.
function(explore out_var)
  execute_process(
    COMMAND "${CLI_BIN}" explore LR --fault-rate 0.3 ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "explore_resilience_smoke: 's2fa explore LR "
                        "--fault-rate 0.3 ${ARGN}' exited ${rc}:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The stdout tail starting at the `scheduler:` line.
function(tail_from_scheduler out_var text)
  string(FIND "${text}" "scheduler:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "explore_resilience_smoke: no 'scheduler:' line "
                        "in:\n${text}")
  endif()
  string(SUBSTRING "${text}" ${at} -1 tail)
  set(${out_var} "${tail}" PARENT_SCOPE)
endfunction()

explore(plain)
explore(fresh --resume-journal "${JOURNAL}")
explore(resumed --resume-journal "${JOURNAL}")
file(REMOVE "${JOURNAL}")

string(REGEX MATCH
       "resilience: [0-9]+ retries \\(([0-9]+) crash, ([0-9]+) timeout, ([0-9]+) garbage\\)"
       line "${fresh}")
if(NOT line)
  message(FATAL_ERROR "explore_resilience_smoke: no 'resilience:' line in "
                      "the journaled run:\n${fresh}")
endif()
foreach(i 1 2 3)
  if(CMAKE_MATCH_${i} EQUAL 0)
    message(FATAL_ERROR "explore_resilience_smoke: a failure kind was never "
                        "injected: '${line}'")
  endif()
endforeach()

string(REGEX MATCH "journal: [0-9]+ entries \\(([0-9]+) resumed" line
       "${resumed}")
if(NOT line OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "explore_resilience_smoke: the resumed run replayed "
                      "nothing:\n${resumed}")
endif()

tail_from_scheduler(plain_tail "${plain}")
tail_from_scheduler(fresh_tail "${fresh}")
tail_from_scheduler(resumed_tail "${resumed}")
if(NOT fresh_tail STREQUAL plain_tail OR NOT resumed_tail STREQUAL plain_tail)
  message(FATAL_ERROR "explore_resilience_smoke: the runs diverge from the "
                      "'scheduler:' line on.\n--- no journal:\n${plain_tail}"
                      "\n--- fresh journal:\n${fresh_tail}"
                      "\n--- resumed:\n${resumed_tail}")
endif()
