# Run a binary and require an exact exit code (ctest exit-code checks;
# WILL_FAIL accepts any non-zero code, and PASS_REGULAR_EXPRESSION
# ignores the code altogether).
#
# Usage:
#   cmake -DBINARY=<path> -DARGS="--depth=-1" -DEXIT=2 [-DREGEX=<regex>]
#         -P expect_exit.cmake
#
# Fails unless BINARY ARGS exits with EXIT and, when REGEX is given, its
# stdout + stderr match REGEX.

foreach(var BINARY EXIT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "expect_exit.cmake: ${var} is required")
    endif()
endforeach()

execute_process(COMMAND ${BINARY} ${ARGS}
                RESULT_VARIABLE run_rc
                OUTPUT_VARIABLE run_out
                ERROR_VARIABLE run_err)
message("${run_out}${run_err}")
if(NOT run_rc STREQUAL "${EXIT}")
    message(FATAL_ERROR "${BINARY} exited with ${run_rc}, expected ${EXIT}")
endif()
if(DEFINED REGEX AND NOT "${run_out}${run_err}" MATCHES "${REGEX}")
    message(FATAL_ERROR "output does not match '${REGEX}'")
endif()
