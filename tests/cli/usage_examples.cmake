# Check that every example invocation in risspgen's usage text parses.
# Each usage line that starts with "risspgen " is run with one more
# word, --bogus, appended. Every verb reads all its words before it
# opens a file, a store or a socket, so an example that parses exits
# 2 naming '--bogus'; an example with a word its verb does not take
# names that word instead. Usage:
#   cmake -DCMD=<risspgen> -P usage_examples.cmake
execute_process(COMMAND ${CMD} OUTPUT_VARIABLE usage
                RESULT_VARIABLE rc)
string(REGEX MATCHALL "\n  risspgen [^\n]*" examples "${usage}")
list(LENGTH examples count)
if(count LESS 10)
  message(FATAL_ERROR "found ${count} examples in the usage text, "
                      "want at least 10:\n${usage}")
endif()
foreach(example ${examples})
  string(REGEX REPLACE "^\n  risspgen " "" example "${example}")
  separate_arguments(args UNIX_COMMAND "${example}")
  execute_process(COMMAND ${CMD} ${args} --bogus
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT "${out}${err}" MATCHES "'--bogus'")
    message(FATAL_ERROR "usage example 'risspgen ${example}' does not "
                        "parse (exit ${rc}):\n${out}${err}")
  endif()
endforeach()
