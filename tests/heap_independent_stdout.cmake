# Runs a program under the default allocator and again under glibc malloc
# tunables that move its heap addresses, and fails unless every run prints
# byte-identical stdout: the output may depend on the program's logic only.
#
#   cmake -DPROGRAM=<program> -P heap_independent_stdout.cmake
unset(ENV{GLIBC_TUNABLES})
execute_process(COMMAND "${PROGRAM}" RESULT_VARIABLE rc OUTPUT_VARIABLE ref)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM}: exit status ${rc}")
endif()
foreach(tunable glibc.malloc.tcache_count=0 glibc.malloc.mmap_threshold=4096)
  set(ENV{GLIBC_TUNABLES} "${tunable}")
  execute_process(COMMAND "${PROGRAM}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} (GLIBC_TUNABLES=${tunable}): exit status ${rc}")
  endif()
  if(NOT out STREQUAL ref)
    message(FATAL_ERROR "${PROGRAM}: stdout under GLIBC_TUNABLES=${tunable} "
                        "differs from the default allocator's\n"
                        "--- default\n${ref}--- ${tunable}\n${out}")
  endif()
endforeach()
