# Runs an sgxperf pipeline in a fresh directory and checks its output:
# byte-for-byte against a committed golden, and/or as valid JSON.
#
#   cmake -DSGXPERF=<sgxperf> -DWORK_DIR=<dir> -DCHECK="<args>"
#         [-DPREPARE="<args>"] [-DOUTPUT=<file>] [-DEXPECT_RC=<n>]
#         [-DGOLDEN=<file>] [-DJSON_CHECK=<json_check>] -P golden_check.cmake
#
# PREPARE (optional) runs first and must exit 0, typically recording a
# trace.  CHECK must exit EXPECT_RC (default 0).  The checked output is
# CHECK's stdout, or the file OUTPUT (relative to WORK_DIR) when given.
# Argument strings are split like a Unix shell command line.
foreach(var SGXPERF WORK_DIR CHECK)
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
  separate_arguments(prepare_args UNIX_COMMAND "${PREPARE}")
  execute_process(COMMAND "${SGXPERF}" ${prepare_args} WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_check: sgxperf ${PREPARE} exited ${rc}\n${err}")
  endif()
endif()

separate_arguments(check_args UNIX_COMMAND "${CHECK}")
execute_process(COMMAND "${SGXPERF}" ${check_args} WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE rc OUTPUT_FILE "${WORK_DIR}/stdout.txt" ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "golden_check: sgxperf ${CHECK} exited ${rc}, expected ${EXPECT_RC}\n${err}")
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
  execute_process(COMMAND "${JSON_CHECK}" "${actual}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "golden_check: ${actual} is not valid JSON")
  endif()
endif()
