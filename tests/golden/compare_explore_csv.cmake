# Sweep the plan PLAN with `RISSPGEN explore` at THREADS worker
# threads, writing the CSV to OUT, and compare it byte for byte with
# the file GOLDEN. Usage:
#   cmake -DRISSPGEN=<exe> -DPLAN=<file> -DTHREADS=<n> -DGOLDEN=<file>
#         -DOUT=<file> -P compare_explore_csv.cmake
execute_process(COMMAND ${RISSPGEN} explore ${PLAN} --threads ${THREADS}
                        --quiet --physical --csv ${OUT}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${RISSPGEN} explore exited with status ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "explore CSV at --threads ${THREADS} differs from "
                      "${GOLDEN}; actual output kept in ${OUT}")
endif()
