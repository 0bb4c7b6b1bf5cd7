# Runs each paper-reproduction bench, and bench_sweep_grid's golden of
# the offline design-space grid, and compares its stdout byte for
# byte with the committed bench/golden/<name>.txt (ctest's
# paper_benches_golden):
#
#   cmake -DBENCH_DIR=<dir of the bench_* binaries> -DOUT_DIR=<output dir> \
#         -P bench/golden/check.cmake
#
# MFA_BENCH_THREADS and MFA_BENCH_OUT are unset first, so each bench
# runs sequentially and prints its tables to stdout only. A bench whose
# output changes on purpose gets its golden file rewritten in the same
# change: ./bench_<name> > bench/golden/<name>.txt
set(BENCHES
    fig2_t_sensitivity fig3_alex16 fig4_alex32 fig5_vgg fig6_distribution
    table2_characterization table3_characterization table4_weights
    sweep_grid)
set(GOLDEN_DIR "${CMAKE_CURRENT_LIST_DIR}")

unset(ENV{MFA_BENCH_THREADS})
unset(ENV{MFA_BENCH_OUT})
file(MAKE_DIRECTORY "${OUT_DIR}")

set(failed "")
foreach(name IN LISTS BENCHES)
  set(golden "${GOLDEN_DIR}/${name}.txt")
  set(actual "${OUT_DIR}/${name}.txt")
  execute_process(COMMAND "${BENCH_DIR}/bench_${name}"
                  OUTPUT_FILE "${actual}"
                  RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 0)
    message(SEND_ERROR "bench_${name} exited with ${exit_code}")
    list(APPEND failed ${name})
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${actual}"
                  RESULT_VARIABLE differs)
  if(differs)
    message(SEND_ERROR "bench_${name} output differs: diff ${golden} ${actual}")
    list(APPEND failed ${name})
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "paper bench output changed: ${failed}")
endif()
list(LENGTH BENCHES count)
message(STATUS "${count} paper benches print their golden output")
