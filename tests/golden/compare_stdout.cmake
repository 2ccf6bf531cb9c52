# Run CMD and compare its stdout byte for byte with the file GOLDEN
# (OUT keeps the actual output for inspection). Usage:
#   cmake -DCMD=<exe> -DGOLDEN=<file> -DOUT=<file> -P compare_stdout.cmake
execute_process(COMMAND ${CMD} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${CMD} differs from ${GOLDEN}; "
                      "actual output kept in ${OUT}")
endif()
