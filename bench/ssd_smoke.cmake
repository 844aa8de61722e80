# bench_datacenter's SSD-rung smoke shape as a test: the 4-rack shape with a
# throttled per-node SSD must exit 0 (every task done, tracker-shard outage
# isolated to its rack) and must land chunks on the SSD rung.
#
#   cmake -DBENCH=<bench_datacenter> -DOUT_DIR=<dir> -P ssd_smoke.cmake
set(sim_out "${OUT_DIR}/BENCH_datacenter_ssd_smoke_sim.json")
execute_process(
  COMMAND "${BENCH}" --racks=4 --nodes-per-rack=8 --jobs=80 --ssd-bw=400
          "--out=${OUT_DIR}/BENCH_datacenter_ssd_smoke.json"
          "--sim-out=${sim_out}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_datacenter SSD smoke exited with ${status}")
endif()
file(READ "${sim_out}" sim)
if(NOT sim MATCHES "\"chunks_ssd\": [1-9]")
  message(FATAL_ERROR "ssd smoke: no chunks landed on the SSD rung")
endif()
