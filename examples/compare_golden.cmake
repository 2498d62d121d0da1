# Runs one example command and fails unless its stdout is byte-identical to
# a checked-in golden file. The goldens pin what the library prints — rule
# words, anomaly tables, profile scores — so a change to an internal word
# representation cannot move any of it.
#
#   cmake -DPROGRAM=<executable> "-DARGS=<space-separated arguments>" \
#         -DGOLDEN=<file> -DWORK_DIR=<dir> -DNAME=<case> \
#         -P compare_golden.cmake
set(out "${WORK_DIR}/golden_${NAME}.txt")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_FILE "${out}"
                ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NAME}: '${PROGRAM} ${ARGS}' exited '${status}' "
                      "(stderr: ${err})")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${out}"
                        "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${NAME}: output ${out} differs from golden ${GOLDEN}")
endif()
