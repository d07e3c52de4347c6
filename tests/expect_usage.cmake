# Runs one example with bad arguments and passes when it rejects them
# the checked way: a usage line on stderr and exit code 2.  A crash, an
# uncaught exception or a hang (killed after 5 s) fails.
#
#   cmake -DPROGRAM=<path> "-DARGS=<args>" -P expect_usage.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 5)
if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${rc}', stderr:\n${err}")
endif()
