# Runs a pipeline of one program (sgxperf, or a bench binary) in a fresh
# directory and checks its output: byte-for-byte against GOLDEN (a committed
# golden, or a file the pipeline wrote itself), and/or with json_check.
#
#   cmake -DPROGRAM=<binary> -DWORK_DIR=<dir> -DCHECK="<args>"
#         [-DPREPARE="<args> [&& <args>...]"] [-DOUTPUT=<file>] [-DEXPECT_RC=<n>]
#         [-DGOLDEN=<file>] [-DJSON_CHECK="<json_check> [--prom]"]
#         -P golden_check.cmake
#
# PREPARE (optional) runs first and must exit 0, typically recording a
# trace; it may chain several commands with "&&".  CHECK must exit
# EXPECT_RC (default 0).  The checked output is CHECK's stdout, or the file
# OUTPUT (relative to WORK_DIR) when given.  Argument strings are split like
# a Unix shell command line; JSON_CHECK is one too, so it can carry flags
# (json_check --prom).
foreach(var PROGRAM WORK_DIR CHECK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: ${var} is required")
  endif()
endforeach()
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 0)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

if(DEFINED PREPARE)
  string(REPLACE "&&" ";" prepare_steps "${PREPARE}")
  foreach(step IN LISTS prepare_steps)
    separate_arguments(step_args UNIX_COMMAND "${step}")
    execute_process(COMMAND "${PROGRAM}" ${step_args} WORKING_DIRECTORY "${WORK_DIR}"
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "golden_check: ${PROGRAM} ${step} exited ${rc}\n${err}")
    endif()
  endforeach()
endif()

separate_arguments(check_args UNIX_COMMAND "${CHECK}")
execute_process(COMMAND "${PROGRAM}" ${check_args} WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_FILE "${WORK_DIR}/stdout.txt" ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "golden_check: ${PROGRAM} ${CHECK} exited ${rc}, expected ${EXPECT_RC}\n${err}")
endif()

if(DEFINED OUTPUT)
  set(actual "${WORK_DIR}/${OUTPUT}")
else()
  set(actual "${WORK_DIR}/stdout.txt")
endif()

if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${actual}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    execute_process(COMMAND diff -u "${GOLDEN}" "${actual}")
    message(FATAL_ERROR "golden_check: ${actual} diverged from ${GOLDEN}")
  endif()
endif()

if(DEFINED JSON_CHECK)
  separate_arguments(json_check_cmd UNIX_COMMAND "${JSON_CHECK}")
  execute_process(COMMAND ${json_check_cmd} "${actual}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_check: ${JSON_CHECK} rejected ${actual}")
  endif()
endif()
