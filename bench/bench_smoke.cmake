# Runs one bench binary for its smoke test:
#   cmake -DBINARY=<path> -DHEADER=<regex> [-DARGS=<list>] -P bench_smoke.cmake
# Fails unless the binary exits 0 and its output matches HEADER.
execute_process(COMMAND ${BINARY} ${ARGS}
                RESULT_VARIABLE Exit
                OUTPUT_VARIABLE Output
                ERROR_VARIABLE Output)
message("${Output}")
if(NOT Exit EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${Exit}")
endif()
if(NOT Output MATCHES "${HEADER}")
  message(FATAL_ERROR "${BINARY} did not print \"${HEADER}\"")
endif()
