# Runs one bench and byte-compares each of its CSV artifacts against the
# committed golden capture of the same name. Invoked by the GoldenParity.*
# ctest entries added in tests/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DARGS="--n=2000 ..." -DOUT_DIR=<dir>
#         -DCSV="<a.csv> [<b.csv> ...]" -DGOLDEN_DIR=<dir>
#         -P golden_parity.cmake
#
# The figure goldens were captured from the pre-backend-refactor tree; any
# change to RNG stream assignment, calibration, cost accounting, or sweep
# ordering shows up here as a byte diff. The table3, service, endurance and
# extsort goldens pin the virtual-time results those benches print.
separate_arguments(bench_args NATIVE_COMMAND "${ARGS}")
separate_arguments(csv_files NATIVE_COMMAND "${CSV}")
file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${BENCH}" ${bench_args} "--csv_dir=${OUT_DIR}"
  RESULT_VARIABLE run_rc
  OUTPUT_QUIET)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${run_rc}")
endif()
foreach(csv IN LISTS csv_files)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT_DIR}/${csv}"
      "${GOLDEN_DIR}/${csv}"
    RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "golden parity broken: ${OUT_DIR}/${csv} differs "
        "from ${GOLDEN_DIR}/${csv}")
  endif()
endforeach()
