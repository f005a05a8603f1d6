# Disassembles a static library and fails if any fused multiply-add or
# multiply-subtract instruction appears in it. The tile kernels are pinned
# bit for bit to a separate multiply and add (DESIGN.md §16); a path that
# fuses them passes on a CPU that cannot run it, so only this check sees it
# there.
#
#   cmake -DOBJDUMP=<objdump> -DLIB=<archive> -P no_fused_multiply_add.cmake
execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${LIB}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE asm ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${LIB}: exit status ${rc}\n${err}")
endif()
if(NOT asm MATCHES "\tret")
  message(FATAL_ERROR "${OBJDUMP} -d ${LIB}: no code disassembled")
endif()
string(REGEX MATCHALL "[^\n]*\tv?fn?m(add|sub)[^\n]*" fused "${asm}")
if(fused)
  list(LENGTH fused n)
  list(JOIN fused "\n" lines)
  message(FATAL_ERROR "${LIB}: ${n} fused multiply-add instructions\n${lines}")
endif()
