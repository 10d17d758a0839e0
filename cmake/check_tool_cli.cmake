# CLI-robustness smoke test: every malformed invocation must exit 2 with a
# diagnostic on stderr — never half-run with a silently-defaulted value.
# Companion of check_tool_help.cmake; run as:
#   cmake -DTOOL=<path-to-binary> -P check_tool_cli.cmake
# Each case pins one of the front-end hardening guarantees:
#   * non-numeric / scientific-notation / negative values are rejected
#     ("-n banana" used to run with n=0, "-n 1e6" with n=1)
#   * booleans accept only 0|1|true|false ("-keep-rank-files yes" used to
#     silently mean false)
#   * a trailing flag with no value is an error (the old loop dropped it)
#   * fractional ba attachment degrees are rejected, not truncated
#   * contradictory mode combinations are rejected up front
#   * removed flags (-sink-buffer-edges, -pin-threads, -arena-slab-bytes)
#     are unknown, not silently ignored
#   * well-formed values that describe no graph (m beyond the vertex pairs,
#     p outside [0, 1], a negative RGG radius, RHG gamma <= 2 or
#     avg_deg <= 0, BA 2*n*d past 2^64) exit 1 with an "error:" line
#     naming the field
if(NOT DEFINED TOOL)
    message(FATAL_ERROR "pass -DTOOL=<path to example_kagen_tool>")
endif()

# Each case is "<expected stderr substring>|<space-separated argv>"; the
# LAST '|' splits them, so patterns may contain '|' themselves (the boolean
# diagnostic does). No argument may contain spaces, ';', or '|'.
set(CASES
    "invalid value 'banana'|gnm_undirected -n banana"
    "invalid value '1e6'|gnm_undirected -n 1e6"
    "invalid value '-5'|gnm_undirected -n -5"
    "invalid value '12abc'|gnm_undirected -m 12abc"
    "invalid value 'banana'|gnm_undirected -max-buffered-bytes banana"
    "invalid value '-4096'|gnm_undirected -max-buffered-bytes -4096"
    "missing its value|gnm_undirected -max-buffered-bytes"
    "expected a finite number|gnp_undirected -p high"
    "expected a finite number|rgg2d -r 0.1oops"
    "attachment degree|ba -d 2.5"
    "below 2^64 for ba|ba -n 10 -d 1e30 -sink count"
    "expected 0|1|true|false|gnm_undirected -keep-rank-files yes"
    "expected 0|1|true|false|gnm_undirected -keep-rank-files maybe"
    "missing its value|gnm_undirected -sink file -o"
    "missing its value|gnm_undirected -n"
    "unknown flag '-frobnicate'|gnm_undirected -frobnicate 1"
    "unknown flag '-sink-buffer-edges'|gnm_undirected -sink count -sink-buffer-edges 1024"
    "unknown flag '-pin-threads'|gnm_undirected -sink count -pin-threads 1"
    "unknown flag '-arena-slab-bytes'|gnm_undirected -sink count -arena-slab-bytes 4096"
    "unknown model 'nope'|nope"
    "unknown sampler 'v3'|gnm_undirected -sampler v3"
    "unknown semantics 'sometimes'|gnm_undirected -edge-semantics sometimes"
    "milliseconds|gnm_undirected -net-timeout 99999999999999"
    "-listen requires -expect-workers|gnm_undirected -sink count -listen :0"
    "mutually exclusive|gnm_undirected -sink count -listen :0 -expect-workers 1 -connect h:1"
    "requires -sink|gnm_undirected -listen :0 -expect-workers 2"
    "-manifest requires|gnm_undirected -sink file -manifest /tmp/m"
    "requires host:port|-worker"
    "unknown worker flag|-worker :0 -frobnicate 1"
)

set(NUM 0)
foreach(case IN LISTS CASES)
    string(FIND "${case}" "|" SPLIT REVERSE)
    string(SUBSTRING "${case}" 0 ${SPLIT} PATTERN)
    math(EXPR ARGS_AT "${SPLIT} + 1")
    string(SUBSTRING "${case}" ${ARGS_AT} -1 ARGS_STR)
    string(REPLACE " " ";" ARGS "${ARGS_STR}")

    execute_process(COMMAND ${TOOL} ${ARGS}
                    OUTPUT_VARIABLE OUT
                    ERROR_VARIABLE ERR
                    RESULT_VARIABLE RC)
    if(NOT RC EQUAL 2)
        message(FATAL_ERROR
            "'${TOOL} ${ARGS_STR}' exited ${RC}, expected 2\nstderr: ${ERR}")
    endif()
    string(FIND "${ERR}" "${PATTERN}" AT)
    if(AT EQUAL -1)
        message(FATAL_ERROR
            "'${TOOL} ${ARGS_STR}' stderr lacks '${PATTERN}'\nstderr: ${ERR}")
    endif()
    math(EXPR NUM "${NUM} + 1")
endforeach()

# An empty value is rejected too (needs its own block: empty list elements
# don't survive the table above).
execute_process(COMMAND ${TOOL} gnm_undirected -n ""
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 2)
    message(FATAL_ERROR "empty -n value exited ${RC}, expected 2: ${ERR}")
endif()
math(EXPR NUM "${NUM} + 1")

# Well-formed flags whose values describe no graph: the library refuses them
# before any chunk or rank starts, so the tool exits 1 with an "error:" line
# naming the field. These used to die on SIGFPE/SIGSEGV, hang, emit more
# edges than exist, or run silently; the timeout turns a hang into a failure.
set(INVALID_CASES
    "error: kagen: gnm_directed: m = 5|gnm_directed -n 1 -m 5 -sink count"
    "error: kagen: gnm_directed: m = 100|gnm_directed -n 4 -m 100 -sink count"
    "error: kagen: gnm_undirected: m = 100|gnm_undirected -n 4 -m 100 -sink count"
    "error: kagen: gnm_directed: m = 13|gnm_directed -n 4 -m 13 -sink count"
    "error: kagen: gnm_directed: m = 13|gnm_directed -n 4 -m 13 -sink count -ranks 2"
    "error: kagen: rhg: gamma = 2|rhg -g 2 -sink count"
    "error: kagen: rhg: avg_deg = -3|rhg -d -3 -sink count"
    "error: kagen: gnp_directed: p = 1.5|gnp_directed -p 1.5 -sink count"
    "error: kagen: gnp_directed: p = -1|gnp_directed -p -1 -sink count"
    "error: kagen: rgg2d: r = -1|rgg2d -n 100 -r -1 -sink count"
    "error: kagen: rgg3d: r = -1|rgg3d -n 100 -r -1 -sink count -ranks 2"
    "error: kagen: ba: ba_degree = 10000000000000000000|ba -n 10 -d 1e19 -sink count"
)
foreach(case IN LISTS INVALID_CASES)
    string(FIND "${case}" "|" SPLIT REVERSE)
    string(SUBSTRING "${case}" 0 ${SPLIT} PATTERN)
    math(EXPR ARGS_AT "${SPLIT} + 1")
    string(SUBSTRING "${case}" ${ARGS_AT} -1 ARGS_STR)
    string(REPLACE " " ";" ARGS "${ARGS_STR}")

    execute_process(COMMAND ${TOOL} ${ARGS}
                    OUTPUT_VARIABLE OUT
                    ERROR_VARIABLE ERR
                    RESULT_VARIABLE RC
                    TIMEOUT 30)
    if(NOT RC EQUAL 1)
        message(FATAL_ERROR
            "'${TOOL} ${ARGS_STR}' exited ${RC}, expected 1\nstderr: ${ERR}")
    endif()
    string(FIND "${ERR}" "${PATTERN}" AT)
    if(AT EQUAL -1)
        message(FATAL_ERROR
            "'${TOOL} ${ARGS_STR}' stderr lacks '${PATTERN}'\nstderr: ${ERR}")
    endif()
    math(EXPR NUM "${NUM} + 1")
endforeach()

# Spot-check the flip side: values the hardening must NOT reject.
execute_process(COMMAND ${TOOL} gnp_undirected -n 64 -p 0 -sink count
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
    message(FATAL_ERROR "explicit -p 0 must be accepted, got ${RC}: ${ERR}")
endif()
string(FIND "${OUT}" "edges[as_generated]=0" AT)
if(AT EQUAL -1)
    message(FATAL_ERROR "-p 0 must yield an empty gnp graph, got: ${OUT}")
endif()
execute_process(COMMAND ${TOOL} ba -n 64 -d 3 -sink count
                OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
    message(FATAL_ERROR "integral -d 3 for ba must be accepted: ${ERR}")
endif()
# Degenerate but valid instances: no vertex pairs and no edges asked for,
# every pair asked for, a zero radius.
foreach(args "gnm_directed;-n;1;-m;0" "gnm_undirected;-n;0;-m;0"
             "gnm_directed;-n;4;-m;12" "rgg2d;-n;100;-r;0")
    execute_process(COMMAND ${TOOL} ${args} -sink count
                    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC
                    TIMEOUT 30)
    if(NOT RC EQUAL 0)
        message(FATAL_ERROR "valid '${args}' must be accepted, got ${RC}: ${ERR}")
    endif()
endforeach()
# Radii at and far past the unit cube's diagonal: the complete graph on
# n = 100 (4950 edges), in well under the timeout. These used to loop over
# (2*halo+1)^D cell offsets for minutes, or, at 1e300, overflow the halo
# cast and print 0 edges. A degree-0 BA graph is empty, not an abort.
foreach(case "edges[exact_once]=4950|rgg2d;-r;2"
             "edges[exact_once]=4950|rgg2d;-r;1e5"
             "edges[exact_once]=4950|rgg2d;-r;1e10"
             "edges[exact_once]=4950|rgg2d;-r;1e300"
             "edges[exact_once]=4950|rgg3d;-r;1e10"
             "edges[exact_once]=4950|rgg3d;-r;1e300"
             "edges[exact_once]=0|ba;-d;0")
    string(FIND "${case}" "|" SPLIT)
    string(SUBSTRING "${case}" 0 ${SPLIT} PATTERN)
    math(EXPR ARGS_AT "${SPLIT} + 1")
    string(SUBSTRING "${case}" ${ARGS_AT} -1 ARGS)
    execute_process(COMMAND ${TOOL} ${ARGS} -n 100 -sink count
                            -edge-semantics exact_once -pes 3
                    OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR RESULT_VARIABLE RC
                    TIMEOUT 30)
    if(NOT RC EQUAL 0)
        message(FATAL_ERROR "valid '${ARGS}' must be accepted, got ${RC}: ${ERR}")
    endif()
    string(FIND "${OUT}" "${PATTERN}" AT)
    if(AT EQUAL -1)
        message(FATAL_ERROR "'${ARGS}' must print ${PATTERN}, got: ${OUT}")
    endif()
endforeach()

message(STATUS "tool rejects all ${NUM} malformed or invalid invocations")
