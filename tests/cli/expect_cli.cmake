# Run CMD with the '|'-separated arguments ARGS and check that it
# exits with status EXIT and that its stdout + stderr match the
# regular expression MATCH. Usage:
#   cmake -DCMD=<exe> -DARGS=<a|b|c> -DEXIT=<n> -DMATCH=<regex>
#         -P expect_cli.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${CMD} ${args}: exit status ${rc}, want ${EXIT}\n"
                      "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "${CMD} ${args}: output does not match "
                      "'${MATCH}':\n${out}${err}")
endif()
