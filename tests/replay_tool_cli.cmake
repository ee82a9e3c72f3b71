# End-to-end checks of replay_tool's command line (ctest label: tools):
#
#   cmake -DTRACE_GEN=<exe> -DREPLAY_TOOL=<exe> -DWORK_DIR=<dir> -DCASE=<case>
#         -P replay_tool_cli.cmake
#
# CASE metrics_out: two traces with --shards 2 --metrics-out <dir.d>/metrics
#                   write <dir.d>/metrics.run0 and <dir.d>/metrics.run1.
# CASE bad_count:   malformed numeric flags (--cache 12abc, --cache -5,
#                   --shards -1, ...) exit 2 with a message naming the flag.

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/out.d")
foreach(seed 1 2)
  execute_process(
    COMMAND "${TRACE_GEN}" --requests 300 --objects 60 --users 6 --seed ${seed}
            --out "${WORK_DIR}/t${seed}.txt"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_gen exited ${rc}: ${err}")
  endif()
endforeach()

if(CASE STREQUAL "metrics_out")
  execute_process(
    COMMAND "${REPLAY_TOOL}" --trace "${WORK_DIR}/t1.txt" --trace "${WORK_DIR}/t2.txt"
            --shards 2 --metrics-out "${WORK_DIR}/out.d/metrics"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay_tool exited ${rc}: ${err}")
  endif()
  foreach(run 0 1)
    set(path "${WORK_DIR}/out.d/metrics.run${run}")
    if(NOT EXISTS "${path}")
      message(FATAL_ERROR "missing ${path}")
    endif()
    file(READ "${path}" json)
    if(NOT json MATCHES "\"merged\":")
      message(FATAL_ERROR "${path} holds no merged snapshot: ${json}")
    endif()
  endforeach()
elseif(CASE STREQUAL "bad_count")
  foreach(bad "--cache;12abc" "--cache;-5" "--shards;-1" "--private-fraction;1.5x"
          "--admission;2")
    list(GET bad 0 flag)
    string(REPLACE ";" " " shown "${bad}")
    execute_process(
      COMMAND "${REPLAY_TOOL}" --trace "${WORK_DIR}/t1.txt" ${bad}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "replay_tool ${shown} exited ${rc}, expected 2: ${err}")
    endif()
    if(NOT err MATCHES "${flag}")
      message(FATAL_ERROR "the message does not name ${flag}: ${err}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
