# Runs BINARY, writes its stdout to ACTUAL and fails unless ACTUAL is
# byte-identical to GOLDEN. Usage:
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${BINARY}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}; "
                      "run `diff` on the two files to see how")
endif()
