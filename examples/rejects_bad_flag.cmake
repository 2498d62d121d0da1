# Runs PROGRAM with ARGS and fails unless it exits 2 with a diagnostic
# matching EXPECT on stderr: a numeric flag that does not parse must be
# refused by name, not read as 0, wrapped or truncated.
#
#   cmake -DPROGRAM=<executable> "-DARGS=<space-separated arguments>" \
#         -DEXPECT=<regex> -P rejects_bad_flag.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}' exited '${status}', expected 2 "
                      "(stderr: ${err})")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}': stderr '${err}' does not match "
                      "'${EXPECT}'")
endif()
