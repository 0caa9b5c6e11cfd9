# Runs BINARY and fails unless the file under test is byte-identical to
# GOLDEN. Usage:
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -DACTUAL=<file>
#         [-DARGS=<arguments>] [-DOUTPUT=<file>] -P compare.cmake
# ARGS is one string, split like a POSIX shell command line. By default
# the file under test is the binary's stdout, written to ACTUAL. With
# OUTPUT, the file under test is OUTPUT, which the binary itself writes
# (ARGS name it); stdout still goes to ACTUAL. On a mismatch the first
# differing line is printed from both files.
cmake_minimum_required(VERSION 3.16)
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
set(compared "${ACTUAL}")
if(DEFINED OUTPUT)
  set(compared "${OUTPUT}")
  # A file left by an earlier run must not stand in for this run's.
  file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND "${BINARY}" ${args} OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
if(NOT EXISTS "${compared}")
  message(FATAL_ERROR "${BINARY} did not write ${compared}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${compared}"
                RESULT_VARIABLE differs)
if(differs EQUAL 0)
  return()
endif()

# Walk both files line by line to the first difference. Lines are cut
# with string(FIND) rather than turned into CMake lists, which would
# split them at semicolons and brackets.
file(READ "${GOLDEN}" expected)
file(READ "${compared}" actual)
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  if(NOT expected_line STREQUAL actual_line OR
     expected_end EQUAL -1 OR actual_end EQUAL -1)
    break()
  endif()
  math(EXPR expected_end "${expected_end} + 1")
  math(EXPR actual_end "${actual_end} + 1")
  string(SUBSTRING "${expected}" ${expected_end} -1 expected)
  string(SUBSTRING "${actual}" ${actual_end} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
# Mark where a file ends, so a missing line or final newline shows.
if(expected_end EQUAL -1)
  string(APPEND expected_line "<end of file>")
endif()
if(actual_end EQUAL -1)
  string(APPEND actual_line "<end of file>")
endif()
message(FATAL_ERROR "${compared} differs from ${GOLDEN} at line ${line}:\n"
                    "  golden: ${expected_line}\n"
                    "  actual: ${actual_line}")
