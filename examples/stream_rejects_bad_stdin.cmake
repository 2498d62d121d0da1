# Feeds INPUT to `gva_cli stream -` on stdin and fails unless the run exits
# 1 with a diagnostic matching EXPECT on stderr: a sample that is not a
# finite number must fail the stream, not be fed or end it quietly.
#
#   cmake -DGVA_CLI=<path to gva_cli> -DWORK_DIR=<dir> -DNAME=<case> \
#         -DINPUT=<samples> -DEXPECT=<regex> -P stream_rejects_bad_stdin.cmake
set(input_file "${WORK_DIR}/gva_cli_stream_${NAME}.txt")
file(WRITE "${input_file}" "${INPUT}")
execute_process(COMMAND "${GVA_CLI}" stream - --window 2 --paa 2
                        --alphabet 3 --quiet
                INPUT_FILE "${input_file}"
                OUTPUT_QUIET
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "gva_cli stream - on '${INPUT}' exited '${status}', "
                      "expected 1 (stderr: ${err})")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "gva_cli stream - on '${INPUT}': stderr '${err}' does "
                      "not match '${EXPECT}'")
endif()
