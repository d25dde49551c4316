# Byte-for-byte golden comparison of a bench binary's ASCII output
# (ctest `golden` label, docs/TESTING.md).
#
# Usage:
#   cmake -DBINARY=<path> -DARGS="--scale;1;--pes;2" -DGOLDEN=<path>
#         -DOUT=<scratch file> [-DRESULT=<file the binary writes>]
#         -P run_golden.cmake
#
# Runs BINARY with ARGS, captures stdout to OUT, and fails unless OUT is
# byte-identical to GOLDEN. With RESULT, the file the binary wrote there
# is compared instead of stdout (e.g. pim_sweep's SWEEP.json). On
# mismatch the unified diff is printed (via `cmake -E compare_files`
# first, then `diff` when available) and the regenerate command is
# shown.

foreach(var BINARY GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "run_golden.cmake: ${var} is required")
    endif()
endforeach()

if(DEFINED RESULT)
    # A stale file from an earlier run must not pass for this one's.
    file(REMOVE ${RESULT})
endif()
execute_process(COMMAND ${BINARY} ${ARGS}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "golden: ${BINARY} exited with ${run_rc}")
endif()

string(JOIN " " args_text ${ARGS})
set(regenerate "${BINARY} ${args_text} > ${GOLDEN}")
if(DEFINED RESULT)
    set(OUT ${RESULT})
    set(regenerate "${BINARY} ${args_text} && cp ${RESULT} ${GOLDEN}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
    find_program(DIFF_TOOL diff)
    if(DIFF_TOOL)
        execute_process(COMMAND ${DIFF_TOOL} -u ${GOLDEN} ${OUT}
                        OUTPUT_VARIABLE diff_text)
        message(STATUS "diff (golden vs actual):\n${diff_text}")
    endif()
    message(FATAL_ERROR
            "golden: output of ${BINARY} differs from ${GOLDEN}.\n"
            "If the change is intended, regenerate with:\n"
            "  ${regenerate}")
endif()
