# Runs one CLI invocation and passes only when it exits 2 with exactly
# one line on stderr: the contract for a malformed or missing flag value.
#
#   cmake -DEXE=path/to/satnetctl "-DARGS=report|--scale|abc" -P cli_exit_code.cmake
#
# ARGS separates arguments with '|' (a ';' list does not survive add_test).
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT rc EQUAL 2 OR NOT lines EQUAL 1)
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit 2 and one stderr line, "
                      "got exit ${rc} and ${lines} lines:\n${err}")
endif()
message(STATUS "exit ${rc}: ${err}")
