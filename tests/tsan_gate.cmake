# ThreadSanitizer gate over the engine and checker suites. The simulator is
# deterministic by construction, but it *is* built from real OS threads that
# pass one baton between them through semaphores, each process handing off
# directly to the next — exactly the code TSan understands — so the sim/ and
# check/ suites (which exercise spawn/suspend/shutdown, the schedule
# controller hooks, and the explorer's repeated engine teardown) run with
# the `tsan` preset's settings as part of verify. Configures and builds that
# tree on demand inside the calling build tree, so the gate works from a
# fresh checkout and never writes into the source tree.
#
# Expects: SOURCE_DIR, TSAN_DIR (the ThreadSanitizer build tree).
set(tsan_dir "${TSAN_DIR}")

execute_process(
  COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${tsan_dir}"
          -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCIMPI_SANITIZE_THREAD=ON
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan configure failed:\n${out}${err}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" --build "${tsan_dir}" --target test_sim test_check
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tsan build failed:\n${out}${err}")
endif()

foreach(suite IN ITEMS test_sim test_check)
  execute_process(COMMAND "${tsan_dir}/tests/${suite}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${suite} failed under ThreadSanitizer (rc=${rc})")
  endif()
endforeach()
