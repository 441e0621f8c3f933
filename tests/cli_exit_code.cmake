# Runs one CLI invocation and passes only when it exits with EXPECT_RC
# (default 2) and writes exactly EXPECT_LINES lines (default 1) to
# stderr. The defaults are the contract for a malformed or missing flag
# value, or an export that cannot be written: exit 2, one diagnostic.
#
#   cmake -DEXE=path/to/satnetctl "-DARGS=report|--scale|abc" -P cli_exit_code.cmake
#   cmake -DEXE=... "-DARGS=report|--threads|4" -DEXPECT_RC=0 -DEXPECT_LINES=0 -P ...
#
# ARGS separates arguments with '|' (a ';' list does not survive add_test).
if(NOT DEFINED EXPECT_RC)
  set(EXPECT_RC 2)
endif()
if(NOT DEFINED EXPECT_LINES)
  set(EXPECT_LINES 1)
endif()
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT rc EQUAL EXPECT_RC OR NOT lines EQUAL EXPECT_LINES)
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit ${EXPECT_RC} and ${EXPECT_LINES} "
                      "stderr line(s), got exit ${rc} and ${lines} lines:\n${err}")
endif()
message(STATUS "exit ${rc}: ${err}")
