# retcon-query's numeric arguments are decimal or 0x-prefixed hex and
# nothing else: record a small stream with sweep_main --trace-keep,
# then `diff -1` and `diff " 12"` must both exit 2 with "bad commit
# seq" (strtoull used to wrap -1 to 2^64-1 and skip the space).
#
# Usage: cmake -DSWEEP=path/to/sweep_main -DQUERY=path/to/retcon-query
#              -DPREFIX=path/prefix -P query_rejects_signed_arg.cmake
execute_process(COMMAND ${SWEEP} --audit --trace-out ${PREFIX}
                        --trace-keep 0.02 2 kmeans
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
set(rtt ${PREFIX}_kmeans_retcon.rtt)
if(NOT rc EQUAL 0 OR NOT EXISTS ${rtt})
  message(FATAL_ERROR "sweep_main did not record ${rtt} (exit ${rc}):\n"
                      "${out}")
endif()
foreach(arg "-1" " 12")
  execute_process(COMMAND ${QUERY} ${rtt} diff ${arg}
                  ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "diff '${arg}' exited ${rc}, want 2: ${err}")
  endif()
  message(STATUS "diff '${arg}': ${err}")
endforeach()
file(GLOB kept ${PREFIX}_*.rtt)
file(REMOVE ${kept})
