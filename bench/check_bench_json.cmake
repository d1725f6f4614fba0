# Run one harness-based bench binary to exit with MTSIM_BENCH_JSON set
# and check what it leaves: it exits 0, its stdout ends with its
# closing line, and the row file parses as a JSON array holding one
# row per workload x context count, in that order.
#
#   cmake -DBENCH=<binary> -DOUT=<rows.json> -DLAST=<closing line>
#         -DWORKLOADS=<w1;w2;...> -DCONTEXTS=<c1;c2;...>
#         -P check_bench_json.cmake
cmake_minimum_required(VERSION 3.19) # string(JSON)

file(REMOVE "${OUT}" "${OUT}.tmp")
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "MTSIM_BENCH_JSON=${OUT}" "${BENCH}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with '${rc}'")
endif()
string(LENGTH "${stdout}" out_len)
string(LENGTH "${LAST}\n" last_len)
string(FIND "${stdout}" "${LAST}\n" at REVERSE)
math(EXPR want "${out_len} - ${last_len}")
if(NOT at EQUAL want)
    message(FATAL_ERROR "${BENCH}: stdout does not end with '${LAST}'")
endif()
if(NOT EXISTS "${OUT}")
    message(FATAL_ERROR "${BENCH} left no ${OUT}")
endif()

file(READ "${OUT}" rows)
string(JSON type ERROR_VARIABLE err TYPE "${rows}")
if(err OR NOT type STREQUAL "ARRAY")
    message(FATAL_ERROR "${OUT} is not a JSON array: ${err}")
endif()
string(JSON n LENGTH "${rows}")
list(LENGTH WORKLOADS n_w)
list(LENGTH CONTEXTS n_c)
math(EXPR expected "${n_w} * ${n_c}")
if(NOT n EQUAL expected)
    message(FATAL_ERROR "${OUT} holds ${n} rows, expected ${expected}")
endif()
set(i 0)
foreach(w IN LISTS WORKLOADS)
    foreach(c IN LISTS CONTEXTS)
        string(JSON got_w GET "${rows}" ${i} workload)
        string(JSON got_c GET "${rows}" ${i} contexts)
        string(JSON total GET "${rows}" ${i} breakdown total)
        if(NOT got_w STREQUAL w OR NOT got_c EQUAL c OR NOT total GREATER 0)
            message(FATAL_ERROR "${OUT} row ${i} is ${got_w}/${got_c} "
                                "(total ${total}), expected ${w}/${c}")
        endif()
        math(EXPR i "${i} + 1")
    endforeach()
endforeach()
message(STATUS "${OUT}: ${n} rows")
