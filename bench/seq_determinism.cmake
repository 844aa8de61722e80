# Run-to-run determinism of the rack-sharded serial schedule: the 4-rack
# smoke shape under bench_datacenter --engine=seq, run twice, must produce
# byte-identical sim, metrics and trace snapshots.
#
#   cmake -DBENCH=<bench_datacenter> -DOUT_DIR=<dir> -P seq_determinism.cmake
foreach(run 1 2)
  execute_process(
    COMMAND "${BENCH}" --engine=seq --racks=4 --nodes-per-rack=8 --jobs=80
            "--out=${OUT_DIR}/seq_determinism_${run}.json"
            "--sim-out=${OUT_DIR}/seq_determinism_${run}_sim.json"
            "--metrics-out=${OUT_DIR}/seq_determinism_${run}_metrics.json"
            "--trace-out=${OUT_DIR}/seq_determinism_${run}_trace.json"
    OUTPUT_QUIET
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_datacenter --engine=seq run ${run} exited with ${status}")
  endif()
endforeach()
foreach(snapshot sim metrics trace)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${OUT_DIR}/seq_determinism_1_${snapshot}.json"
            "${OUT_DIR}/seq_determinism_2_${snapshot}.json"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "seq determinism: ${snapshot} snapshots differ between two runs")
  endif()
endforeach()
