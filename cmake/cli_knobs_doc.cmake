# README/usage sync check for the `s2fa` knob table. The usage that a bare
# `s2fa` prints lists each command's flags under a "<section> flags:"
# header; README.md documents the same section in the table that follows
# a `<!-- knobs: <section> -->` marker. For every section, the flag and
# environment names in the README table's Flag and Env columns must be
# exactly the ones the usage lists, and every section must appear in both.
#
# Inputs (all -D): CLI_BIN README
cmake_minimum_required(VERSION 3.20)

foreach(var CLI_BIN README)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_knobs_doc: missing -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${CLI_BIN}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE usage)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "cli_knobs_doc: bare s2fa exited ${rc}, want 2")
endif()
file(READ "${README}" readme)

# Splits text into a list of lines. ';' and brackets would confuse CMake's
# list splitting, and escaped pipes would split table cells.
function(to_lines text out_var)
  string(REPLACE ";" "," text "${text}")
  string(REPLACE "[" "(" text "${text}")
  string(REPLACE "]" ")" text "${text}")
  string(REPLACE "\\|" "/" text "${text}")
  string(REPLACE "\n" ";" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

# Appends the --flag and S2FA_* names in `text` to the list `section_<name>`.
macro(add_names name text)
  string(REGEX MATCHALL "--[a-z][a-z-]*|S2FA_[A-Z_]+" found "${text}")
  list(APPEND ${prefix}_${name} ${found})
  list(APPEND ${prefix}_sections ${name})
endmacro()

# Usage rows: "  --flag METAVAR   ENV   help"; the first 60 columns hold the
# flag and env columns, the rest is help text.
set(prefix usage)
set(section "")
to_lines("${usage}" lines)
foreach(line IN LISTS lines)
  if(line MATCHES "^([a-z-]+) flags:$")
    set(section "${CMAKE_MATCH_1}")
  elseif(section AND line MATCHES "^  --")
    string(SUBSTRING "${line}" 0 60 columns)
    add_names("${section}" "${columns}")
  elseif(line STREQUAL "")
    set(section "")
  endif()
endforeach()

# README rows: "| Flag | Env | Default | Meaning |" after a marker.
set(prefix readme)
set(section "")
to_lines("${readme}" lines)
foreach(line IN LISTS lines)
  if(line MATCHES "^<!-- knobs: ([a-z-]+) -->")
    set(section "${CMAKE_MATCH_1}")
  elseif(section AND line MATCHES "^\\|([^|]*)\\|([^|]*)\\|")
    add_names("${section}" "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
  elseif(section AND NOT line STREQUAL "")
    set(section "")
  endif()
endforeach()

list(REMOVE_DUPLICATES usage_sections)
list(REMOVE_DUPLICATES readme_sections)
list(SORT usage_sections)
list(SORT readme_sections)
if(NOT usage_sections STREQUAL readme_sections)
  message(FATAL_ERROR "cli_knobs_doc: usage sections '${usage_sections}' "
                      "but README knob tables '${readme_sections}'")
endif()
set(drift "")
foreach(name IN LISTS usage_sections)
  foreach(side usage readme)
    list(REMOVE_DUPLICATES ${side}_${name})
    list(SORT ${side}_${name})
  endforeach()
  set(missing ${usage_${name}})
  set(extra ${readme_${name}})
  foreach(known IN LISTS readme_${name})
    list(REMOVE_ITEM missing "${known}")
  endforeach()
  foreach(known IN LISTS usage_${name})
    list(REMOVE_ITEM extra "${known}")
  endforeach()
  if(missing OR extra)
    string(APPEND drift "\n  ${name}: README lacks '${missing}', "
                        "README has extra '${extra}'")
  endif()
endforeach()
if(drift)
  message(FATAL_ERROR "cli_knobs_doc: README knob tables drift from the "
                      "s2fa usage:${drift}")
endif()
