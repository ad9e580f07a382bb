# Runs one figure bench and compares its whole stdout byte for byte with a
# committed golden file. lo_add_golden() in bench/CMakeLists.txt calls it as
#   cmake -DBENCH=<binary> -DARGS=<a;b;c> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; actual stdout is in ${ACTUAL}")
endif()
