# End-to-end checks of the tools' command lines (ctest label: tools):
#
#   cmake -DTRACE_GEN=<exe> -DREPLAY_TOOL=<exe> -DCHAOS_TOOL=<exe>
#         -DTELEMETRY_TOOL=<exe> -DBENCH=<a bench_* exe> -DWORK_DIR=<dir>
#         -DCASE=<case> -P replay_tool_cli.cmake
#
# CASE metrics_out: two traces with --shards 2 --metrics-out <dir.d>/metrics
#                   write <dir.d>/metrics.run0 and <dir.d>/metrics.run1.
# CASE bad_count:   malformed numeric flags (--cache 12abc, --cache -5,
#                   --shards -1, ...) exit 2 with a message naming the flag.
# CASE trace_out_with_shards: --trace-out/--trace-filter with --shards exit
#                   0 and warn on stderr that the capture is ignored.
# CASE unsharded_jobs: a text and a binary trace replay to byte-identical
#                   --json at --jobs 1 and 2; a malformed trace exits 1 with
#                   a message that names the file once, with or without
#                   --shards.
# CASE telemetry_json: --json --telemetry-out carries telemetry.lookups
#                   equal to engine.requests and no telemetry.outcome.* key
#                   (the outcome counts appear once, under engine.*).
# CASE bad_numbers: malformed numbers given to trace_gen, chaos_tool,
#                   telemetry_tool and a bench binary (flags and NDNP_*
#                   variables) exit 2 with a message naming the flag or
#                   variable.

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
elseif(CASE STREQUAL "trace_out_with_shards")
  execute_process(
    COMMAND "${REPLAY_TOOL}" --trace "${WORK_DIR}/t1.txt" --shards 2
            --trace-out "${WORK_DIR}/cap.jsonl" --trace-filter /web
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay_tool exited ${rc}: ${err}")
  endif()
  if(NOT err MATCHES "warning: --trace-out and --trace-filter are ignored with --shards")
    message(FATAL_ERROR "no warning that the capture is ignored: ${err}")
  endif()
elseif(CASE STREQUAL "unsharded_jobs")
  execute_process(
    COMMAND "${TRACE_GEN}" --convert "${WORK_DIR}/t2.txt" --out "${WORK_DIR}/t2.bin"
            --format binary
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_gen --convert exited ${rc}: ${err}")
  endif()
  foreach(jobs 1 2)
    execute_process(
      COMMAND "${REPLAY_TOOL}" --trace "${WORK_DIR}/t1.txt" --trace "${WORK_DIR}/t2.bin"
              --policy expo --cache 20 --json --jobs ${jobs} --chunk 7
      RESULT_VARIABLE rc OUTPUT_VARIABLE json_${jobs} ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "replay_tool --jobs ${jobs} exited ${rc}: ${err}")
    endif()
  endforeach()
  if(NOT json_1 MATCHES "\"replay.records\":300")
    message(FATAL_ERROR "no 300-record run in the JSON: ${json_1}")
  endif()
  if(NOT json_1 STREQUAL json_2)
    message(FATAL_ERROR "--jobs 1 and --jobs 2 differ:\n${json_1}\n${json_2}")
  endif()

  file(WRITE "${WORK_DIR}/bad.txt" "0.5 1 /web/dom0/obj0 100\ngarbage\n")
  foreach(mode "" "--shards;2")
    execute_process(
      COMMAND "${REPLAY_TOOL}" --trace "${WORK_DIR}/bad.txt" ${mode}
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR "replay_tool ${mode} on a malformed trace exited ${rc}: ${err}")
    endif()
    string(REGEX MATCHALL "bad\\.txt" named "${err}")
    list(LENGTH named times)
    if(NOT times EQUAL 1 OR NOT err MATCHES "malformed line 2")
      message(FATAL_ERROR "expected one mention of bad.txt and its line 2: ${err}")
    endif()
  endforeach()
elseif(CASE STREQUAL "telemetry_json")
  execute_process(
    COMMAND "${REPLAY_TOOL}" --trace "${WORK_DIR}/t1.txt" --policy expo --cache 20 --json
            --telemetry-out "${WORK_DIR}/series.csv"
    RESULT_VARIABLE rc OUTPUT_VARIABLE json ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay_tool --json --telemetry-out exited ${rc}: ${err}")
  endif()
  string(JSON counters GET "${json}" runs 0 counters)
  string(JSON lookups GET "${counters}" telemetry.lookups)
  string(JSON requests GET "${counters}" engine.requests)
  if(requests EQUAL 0 OR NOT lookups EQUAL requests)
    message(FATAL_ERROR "telemetry.lookups=${lookups} but engine.requests=${requests}")
  endif()
  if(json MATCHES "\"telemetry\\.outcome\\.")
    message(FATAL_ERROR "telemetry.outcome.* repeats the engine's counts: ${json}")
  endif()
  if(NOT EXISTS "${WORK_DIR}/series.csv")
    message(FATAL_ERROR "--telemetry-out wrote no ${WORK_DIR}/series.csv")
  endif()
elseif(CASE STREQUAL "bad_numbers")
  # Each entry: flag or variable the message must name, then the command.
  foreach(bad
      "--requests;${TRACE_GEN};--requests;12abc"
      "--zipf;${TRACE_GEN};--zipf;0.8x"
      "--objects;${TRACE_GEN};--objects;-5"
      "--episodes;${CHAOS_TOOL};--mode;both;--episodes;abc"
      "--min-recall;${TELEMETRY_TOOL};--min-recall;0.9x"
      "--chunk;${REPLAY_TOOL};--trace;${WORK_DIR}/t1.txt;--chunk;0"
      "--jobs;${BENCH};--jobs;-1"
      "NDNP_TRACE_REQUESTS;${CMAKE_COMMAND};-E;env;NDNP_TRACE_REQUESTS=50k;${BENCH}"
      "NDNP_JOBS;${CMAKE_COMMAND};-E;env;NDNP_JOBS=2x;${BENCH}")
    list(POP_FRONT bad name)
    string(REPLACE ";" " " shown "${bad}")
    execute_process(COMMAND ${bad} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${shown} exited ${rc}, expected 2: ${err}")
    endif()
    if(NOT err MATCHES "${name}")
      message(FATAL_ERROR "the message does not name ${name}: ${err}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
