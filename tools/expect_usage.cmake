# Runs ${EXE} ${FLAG} ${VALUE} and fails unless the process exits 2 and
# prints its usage: the contract for a flag value rejected at parse time.
#
#   cmake -DEXE=path/to/dc_run -DFLAG=--iterations -DVALUE=abc \
#         -P tools/expect_usage.cmake
execute_process(COMMAND ${EXE} ${FLAG} ${VALUE}
                RESULT_VARIABLE Code
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err
                TIMEOUT 60)
if(NOT Code EQUAL 2)
  message(FATAL_ERROR "${FLAG} ${VALUE}: expected exit 2, got '${Code}'")
endif()
if(NOT Err MATCHES "usage: ")
  message(FATAL_ERROR "${FLAG} ${VALUE}: no usage text on stderr:\n${Err}")
endif()
