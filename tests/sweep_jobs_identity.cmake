# Run-level parallelism must not change what the sweep prints: run the
# audited sharded quick sweep at --jobs 1 and --jobs 4, mask the host
# wall times (the wall-ms column and the sweep wall line), and fail on
# any other difference.
#
# Usage: cmake -DSWEEP=path/to/sweep_main -P sweep_jobs_identity.cmake
foreach(jobs 1 4)
  execute_process(COMMAND ${SWEEP} --quick --audit --shards 4 --jobs ${jobs}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep_main --jobs ${jobs} exited ${rc}:\n${out}")
  endif()
  # Row tail: "| <backoff> | <wall-ms> | ok"; the first match that
  # reaches the ok column is the wall-ms field.
  string(REGEX REPLACE "\\| +[0-9.]+ \\| (yes|NO)" "| <wall-ms> | \\1"
         out "${out}")
  string(REGEX REPLACE "sweep wall:[^\n]*" "sweep wall: <masked>"
         out "${out}")
  set(out_${jobs} "${out}")
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "--jobs 4 output differs from --jobs 1\n"
                      "--- jobs 1:\n${out_1}\n--- jobs 4:\n${out_4}")
endif()
message(STATUS "--jobs 1 and --jobs 4 outputs match")
