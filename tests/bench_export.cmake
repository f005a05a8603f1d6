# Runs a bench binary with NARMA_JSON set and checks its export: a
# narma.bench.v1 document with at least one table.
#
#   cmake -DBENCH=<program> -DJSON=<export path> -P bench_export.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
file(REMOVE "${JSON}")
set(ENV{NARMA_JSON} "${JSON}")
execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH}: exit status ${rc}\n${out}")
endif()
file(READ "${JSON}" doc)
string(JSON schema ERROR_VARIABLE err GET "${doc}" schema)
string(JSON tables ERROR_VARIABLE err LENGTH "${doc}" tables)
if(NOT schema STREQUAL "narma.bench.v1" OR NOT tables GREATER 0)
  message(FATAL_ERROR
          "${JSON}: schema '${schema}', ${tables} tables; expected "
          "narma.bench.v1 with at least one table")
endif()
