# Script-mode ctest helper: the zero-drift gate.  Reruns the three flagship
# benches at the trace length the committed BENCH_*.json baselines were
# recorded with (CPT_TRACE_LEN=50000), validates each report against the
# current schema, and requires tools/bench_diff.py to find no simulated
# drift (wall-clock keys are reported, never gated).
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir with bench_*> -DSOURCE_DIR=<repo root>
#         -DPYTHON=<python3> -DOUT_DIR=<scratch dir> -P this_file
file(MAKE_DIRECTORY "${OUT_DIR}")
foreach(bench table1 fig9 fig11b)
  set(report "${OUT_DIR}/${bench}.json")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CPT_TRACE_LEN=50000
            "${BENCH_DIR}/bench_${bench}" "--json=${report}"
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_${bench} failed (exit ${result}): ${err}")
  endif()
  execute_process(
    COMMAND "${PYTHON}" "${SOURCE_DIR}/tools/check_bench_json.py" "${report}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_${bench} report failed schema validation: ${out} ${err}")
  endif()
  execute_process(
    COMMAND "${PYTHON}" "${SOURCE_DIR}/tools/bench_diff.py"
            "${SOURCE_DIR}/BENCH_${bench}.json" "${report}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_${bench} drifted from BENCH_${bench}.json:\n${out}${err}")
  endif()
  message(STATUS "bench_${bench}: no simulated drift")
endforeach()
