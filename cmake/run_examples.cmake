# Smoke test of the example programs: each runs once at its default size
# (under 2 s apiece on a 4-core host) and must exit 0. The examples are the
# library's end-to-end callers: they generate through kagen::generate or
# generate_chunked and check structural invariants themselves (the mesh
# pipeline exits 1 on a broken torus identity or binary round trip). Run as:
#   cmake -DBIN_DIR=<build dir> -DOUT_DIR=<scratch dir> -P run_examples.cmake
if(NOT DEFINED BIN_DIR OR NOT DEFINED OUT_DIR)
    message(FATAL_ERROR "pass -DBIN_DIR=<build dir> -DOUT_DIR=<scratch dir>")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

function(run_example name)
    execute_process(COMMAND "${BIN_DIR}/example_${name}" ${ARGN}
                    OUTPUT_VARIABLE OUT
                    ERROR_VARIABLE ERR
                    RESULT_VARIABLE RC
                    TIMEOUT 120)
    if(NOT RC EQUAL 0)
        message(FATAL_ERROR "example_${name} ${ARGN} exited ${RC}\n"
                            "stdout: ${OUT}\nstderr: ${ERR}")
    endif()
    message(STATUS "example_${name}: ok")
endfunction()

run_example(community_detection)
run_example(graph500_bfs)
run_example(mesh_pipeline 5000 4 "${OUT_DIR}") # writes mesh.metis, mesh.bin
run_example(quickstart)
run_example(social_network)
run_example(wireless_sensor)
