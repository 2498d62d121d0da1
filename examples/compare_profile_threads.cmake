# Runs `gva_cli profile demo:ecg` with one lane and with four, and fails
# unless the two outputs are byte-identical: the parameter sweep must not
# depend on its lane count.
#
#   cmake -DGVA_CLI=<path to gva_cli> -DWORK_DIR=<dir> \
#         -P compare_profile_threads.cmake
foreach(threads 1 4)
  set(out "${WORK_DIR}/gva_cli_profile_threads_${threads}.txt")
  execute_process(COMMAND "${GVA_CLI}" profile demo:ecg --threads ${threads}
                  OUTPUT_FILE "${out}"
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "gva_cli profile --threads ${threads} exited ${status}")
  endif()
endforeach()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/gva_cli_profile_threads_1.txt"
                        "${WORK_DIR}/gva_cli_profile_threads_4.txt"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "gva_cli profile output differs between --threads 1 "
                      "and --threads 4")
endif()
