# Disassembles the matching engine and NIC libraries and fails if a string
# instruction (rep movs / rep stos) appears in a function every notification
# passes through. A memcpy of a run-time length or the value-initialization
# of a whole notification entry compiles to one, and its startup cost is
# paid once per notification (DESIGN.md §17, "String instructions").
#
#   cmake -DOBJDUMP=<objdump> "-DLIBS=<archive>;..." \
#         -P no_rep_string_on_notify_path.cmake
set(functions
  "narma::na::NaEngine::consume("
  "narma::na::NaEngine::put_notify("
  "narma::na::NaEngine::drain_hw("
  "narma::na::NaEngine::test_indexed("
  "narma::na::NaEngine::test_linear("
  "narma::na::NaEngine::iprobe_linear("
  "narma::net::Nic::pop_hw_batch(")

set(asm "")
foreach(lib ${LIBS})
  execute_process(COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${lib}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${lib}: exit status ${rc}\n${err}")
  endif()
  string(APPEND asm "${out}")
endforeach()
# Brackets in demangled names would group list items; semicolons would
# split them.
string(REPLACE "[" "(" asm "${asm}")
string(REPLACE "]" ")" asm "${asm}")
string(REPLACE ";" "," asm "${asm}")

# Function headers and string instructions, in address order: each
# instruction belongs to the last header before it.
string(REGEX MATCHALL "\n[0-9a-f]+ <[^\n]*>:|\trep (movs|stos)[^\n]*"
       items "${asm}")
set(current "")
set(seen "")
set(bad "")
foreach(item ${items})
  if(item MATCHES "^\n[0-9a-f]+ <(.*)>:$")
    set(current "")
    set(name "${CMAKE_MATCH_1}")
    foreach(fn ${functions})
      string(FIND "${name}" "${fn}" at)
      if(at EQUAL 0)
        set(current "${name}")
        list(APPEND seen "${fn}")
      endif()
    endforeach()
  elseif(current)
    list(APPEND bad "${current}: ${item}")
  endif()
endforeach()

foreach(fn ${functions})
  list(FIND seen "${fn}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${fn}...) not found in ${LIBS}")
  endif()
endforeach()
if(bad)
  list(LENGTH bad n)
  list(JOIN bad "\n" lines)
  message(FATAL_ERROR "${n} string instructions on the notification path\n"
                      "${lines}")
endif()
