# Runs narma_cli and checks its exit status and output.
#
#   cmake -DCLI=<narma_cli> -DARGS="<space-separated args>" -DEXIT=<status>
#         -DEXPECT=<substring> -P cli_expect.cmake
#
# Passes when the exit status equals EXIT and stdout+stderr contain EXPECT
# verbatim. A crash or uncaught exception exits with a signal status, never
# with EXIT, so it fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "narma_cli ${ARGS}: exit status ${rc}, expected ${EXIT}\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "narma_cli ${ARGS}: output lacks \"${EXPECT}\"\n${out}")
endif()
