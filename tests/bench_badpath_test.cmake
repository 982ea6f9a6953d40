# Script-mode ctest helper: runs a bench binary with a bad telemetry flag or
# a bad environment knob and requires BOTH a nonzero exit status and a
# stderr message matching EXPECT — a truncated or missing report must never
# look like success, and the error must name the problem (bench_flags.h's
# Die/DieLate contract, common/parse.h's ParseU64OrExit).
#
# Invoked as:
#   cmake -DBENCH=<binary> "-DARG=<flag or empty>" "-DEXPECT=<regex>"
#         ["-DENV=<VAR=value>"] -P this_file
set(cmd "${BENCH}")
if(NOT ARG STREQUAL "")
  list(APPEND cmd "${ARG}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${ENV} ${cmd}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(result EQUAL 0)
  message(FATAL_ERROR "expected a nonzero exit for '${ENV} ${ARG}', got 0")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
          "stderr does not match '${EXPECT}' for '${ENV} ${ARG}'; got: ${err}")
endif()
message(STATUS "exit ${result}, message ok: ${err}")
