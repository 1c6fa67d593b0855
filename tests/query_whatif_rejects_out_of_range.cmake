# `retcon-query whatif` rejects a run size the machine cannot hold
# before running anything: each --set below must exit 2 with a
# diagnostic naming the knob (the machine used to panic, exit 134).
#
# Usage: cmake -DQUERY=path/to/retcon-query
#              -P query_whatif_rejects_out_of_range.cmake
foreach(set "clusters=9" "shards=99")
  string(REGEX REPLACE "=.*" "" knob ${set})
  execute_process(COMMAND ${QUERY} whatif --set ${set}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${knob} [0-9]+ is out of range")
    message(FATAL_ERROR "whatif --set ${set} exited ${rc}, want 2 and "
                        "a '${knob} ... is out of range' diagnostic:\n"
                        "${err}${out}")
  endif()
  message(STATUS "whatif --set ${set}: ${err}")
endforeach()
