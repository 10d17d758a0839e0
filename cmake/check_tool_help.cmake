# Smoke test: example_kagen_tool -help must print every documented flag,
# grouped by subsystem. Run as:
#   cmake -DTOOL=<path-to-binary> -P check_tool_help.cmake
# Keep the flag list in sync with the parser in examples/kagen_tool.cpp —
# this test is what keeps -help honest when flags are added.
if(NOT DEFINED TOOL)
    message(FATAL_ERROR "pass -DTOOL=<path to example_kagen_tool>")
endif()

execute_process(COMMAND ${TOOL} -help
                OUTPUT_VARIABLE HELP_OUT
                ERROR_VARIABLE HELP_ERR
                RESULT_VARIABLE HELP_RC)
if(NOT HELP_RC EQUAL 0)
    message(FATAL_ERROR "'${TOOL} -help' exited with ${HELP_RC}: ${HELP_ERR}")
endif()

# Every flag the tool parses, plus the subsystem group headers.
set(EXPECTED_FLAGS
    -n -m -p -r -d -g -s -sampler
    -rank -size -o
    -sink -pes -chunks-per-pe -chunks -edge-semantics
    -max-buffered-bytes -spill-path
    -dedup-out -sort-memory
    -ranks -threads-per-rank -keep-rank-files
    -listen -connect -expect-workers -manifest -net-timeout -net-deadline
    -worker -worker-scratch
    -trace -metrics -v
    -help)
set(EXPECTED_GROUPS
    "Model parameters"
    "Per-PE path"
    "Chunked engine"
    "Ordered delivery / spill window"
    "External-memory dedup"
    "Distributed backend"
    "Multi-node TCP backend"
    "Worker mode"
    "Telemetry")
set(EXPECTED_MODELS
    gnm_directed gnm_undirected gnp_directed gnp_undirected
    rgg2d rgg3d rdg2d rdg3d rhg rhg_streaming ba rmat)

foreach(flag IN LISTS EXPECTED_FLAGS)
    # Flags appear at the start of their help line, two-space indented.
    string(FIND "${HELP_OUT}" "  ${flag} " AT_SPACE)
    string(FIND "${HELP_OUT}" "  ${flag}\n" AT_EOL)
    if(AT_SPACE EQUAL -1 AND AT_EOL EQUAL -1)
        message(FATAL_ERROR "-help is missing documented flag '${flag}'")
    endif()
endforeach()

foreach(group IN LISTS EXPECTED_GROUPS EXPECTED_MODELS)
    string(FIND "${HELP_OUT}" "${group}" AT)
    if(AT EQUAL -1)
        message(FATAL_ERROR "-help is missing '${group}'")
    endif()
endforeach()

list(LENGTH EXPECTED_FLAGS NUM_FLAGS)
message(STATUS "tool -help documents all ${NUM_FLAGS} flags")
