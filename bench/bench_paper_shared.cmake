# ctest script (cmake -DBENCH_PAPER=<path> -P bench_paper_shared.cmake):
# a lone single-threaded `--figure=fig08` run must print exactly the
# bytes of the fig08 section of a full pooled run, where Figure 8 reads
# the suite grid it shares with Figures 2, 6, 7 and 9.

execute_process(
    COMMAND ${BENCH_PAPER} --figure=fig08 --threads=1 --scale=10
    OUTPUT_VARIABLE single
    RESULT_VARIABLE single_rc)
if(NOT single_rc EQUAL 0)
    message(FATAL_ERROR "bench_paper --figure=fig08 exited ${single_rc}")
endif()

execute_process(
    COMMAND ${BENCH_PAPER} --scale=10
    OUTPUT_VARIABLE full
    RESULT_VARIABLE full_rc)
if(NOT full_rc EQUAL 0)
    message(FATAL_ERROR "bench_paper (all figures) exited ${full_rc}")
endif()

string(FIND "${full}" "${single}" at)
if(single STREQUAL "" OR at EQUAL -1)
    message(FATAL_ERROR
        "fig08 section of the full run differs from the lone run:\n"
        "${single}")
endif()
