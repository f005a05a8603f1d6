# Runs narma_cli and checks its exit status and output.
#
#   cmake -DCLI=<narma_cli> -DARGS="<space-separated args>" -DEXIT=<status>
#         -DEXPECT=<substring>[;<substring>...] -P cli_expect.cmake
#
# Passes when the exit status equals EXIT and stdout+stderr contain every
# EXPECT substring verbatim. A crash or uncaught exception exits with a
# signal status, never with EXIT, so it fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "narma_cli ${ARGS}: exit status ${rc}, expected ${EXIT}\n${out}")
endif()
foreach(expect IN LISTS EXPECT)
  string(FIND "${out}" "${expect}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "narma_cli ${ARGS}: output lacks \"${expect}\"\n${out}")
  endif()
endforeach()
