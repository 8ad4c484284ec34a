# ThreadSanitizer drill: a single scratch -fsanitize=thread build of the
# CLI, then every threaded surface of the product through it. Any data
# race aborts the process (halt_on_error=1, exitcode=66) and fails the
# step. Skips gracefully when the toolchain cannot link TSan.
#
# One script, one ctest entry per STEP. `build` is the ctest fixture
# setup (tsan_build); the scenario steps require it, so the TSan tree is
# configured and built once however many scenarios run:
#
#   pipeline (pipeline_tsan)
#     1. capture engine, one shard: the producer thread generates the
#        next slab while the calling thread computes and folds the
#        current one (the overlap runs when the machine has a second
#        hardware thread; the step reads slm.pipeline.depth from
#        --trace-out and says so when it did not);
#     2. capture engine, four shards: contiguous chunks on the pool,
#        plus snapshot writing at a deterministic halt (rc 5);
#   serve (serve_tsan)
#     3. the spool-watcher thread hammers the shared fair-share
#        scheduler while the serve loop pops, requeues and charges
#        timeslices of six jobs across three tenants;
#   fabric (fabric_tsan)
#     4. `slm coordinate` with a killed worker — the per-worker JSONL
#        monitor threads write the shared FabricProgress view while the
#        reap loop reads it.
#
# Usage: cmake -DSTEP=build -DREPO=<source root> -DWORKDIR=<scratch dir>
#              -DCXX=<C++ compiler> -P tsan_drill.cmake
#        cmake -DSTEP=<pipeline|serve|fabric> -DWORKDIR=<scratch dir>
#              -P tsan_drill.cmake

if(NOT STEP MATCHES "^(build|pipeline|serve|fabric)$")
  message(FATAL_ERROR "tsan drill: unknown STEP '${STEP}' "
                      "(expected build, pipeline, serve or fabric)")
endif()

set(scratch ${WORKDIR}/tsan_drill)
set(slm ${scratch}/build/tools/slm)
# Written by the build step when the toolchain has no TSan, so the
# scenario steps skip instead of failing on a missing binary.
set(unavailable ${scratch}/tsan_unavailable)

if(STEP STREQUAL "build")
  file(MAKE_DIRECTORY ${scratch})
  file(REMOVE ${unavailable})
  file(WRITE ${scratch}/probe.cpp "int main() { return 0; }\n")
  execute_process(COMMAND ${CXX} -fsanitize=thread ${scratch}/probe.cpp
                          -o ${scratch}/probe
                  RESULT_VARIABLE probe_rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT probe_rc EQUAL 0)
    file(WRITE ${unavailable} "")
    message(STATUS "tsan drill: toolchain cannot link -fsanitize=thread, skipping")
    return()
  endif()

  # Scratch configure + build of just the CLI target (pulls in slm_core,
  # slm_serve and slm_atpg; test and bench binaries are not built).
  execute_process(COMMAND ${CMAKE_COMMAND} -S ${REPO} -B ${scratch}/build
                          -DCMAKE_BUILD_TYPE=RelWithDebInfo
                          "-DCMAKE_CXX_FLAGS=-fsanitize=thread -O1 -g"
                          -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tsan configure failed:\n${out}\n${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} --build ${scratch}/build
                          --target slm --parallel 4
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tsan build failed:\n${out}\n${err}")
  endif()
  return()
endif()

if(EXISTS ${unavailable})
  message(STATUS "tsan drill: toolchain cannot link -fsanitize=thread, skipping ${STEP}")
  return()
endif()
if(NOT EXISTS ${slm})
  message(FATAL_ERROR "tsan drill: no TSan build at ${slm}; run the tsan_build step first")
endif()

set(ENV{TSAN_OPTIONS} "halt_on_error=1 exitcode=66")
# Each step works in its own directory, so scenarios may run in parallel.
set(work ${scratch}/${STEP})
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run_tsan label)
  cmake_parse_arguments(T "" "" "RC;ARGS" ${ARGN})
  execute_process(COMMAND ${slm} ${T_ARGS}
                  WORKING_DIRECTORY ${work}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(FIND T_RC "${rc}" ok)
  if(ok EQUAL -1)
    message(FATAL_ERROR
            "tsan ${label} run -> rc=${rc} (expected ${T_RC}; rc 66 means "
            "ThreadSanitizer reported a data race)\n${out}\n${err}")
  endif()
endfunction()

if(STEP STREQUAL "pipeline")
  # --- 1. One shard, generate/compute overlap. Runs to completion so the
  #        run_end manifest carries the metrics registry (rc 4: 2000 HW
  #        traces do not recover the byte; rc 0 would be fine too).
  set(ckpt ${work}/ckpt_pipelined)
  set(events ${work}/pipelined.jsonl)
  file(REMOVE_RECURSE ${ckpt})
  file(REMOVE ${events})
  run_tsan(pipelined RC 0 4 ARGS attack --circuit alu --mode hw --key-byte 3
           --traces 2000 --threads 1 --block 64 --checkpoint-dir ${ckpt}
           --trace-out ${events})
  file(READ ${events} event_stream)
  if(event_stream MATCHES "\"slm\\.pipeline\\.depth\"")
    message(STATUS "tsan drill: generate/compute overlap ran (slm.pipeline.depth)")
  else()
    message(STATUS "tsan drill: generate/compute overlap did NOT run (one "
                   "hardware thread); the one-shard path ran without it")
  endif()
  file(REMOVE_RECURSE ${ckpt})
  file(REMOVE ${events})

  # --- 2. Four shards on the pool, halting at a checkpoint (rc 5).
  set(ckpt ${work}/ckpt_sharded)
  file(REMOVE_RECURSE ${ckpt})
  run_tsan(sharded RC 5 ARGS attack --circuit alu --mode hw --key-byte 3
           --traces 4000 --threads 4 --block 64 --halt-after 1000
           --checkpoint-dir ${ckpt})
  file(REMOVE_RECURSE ${ckpt})

elseif(STEP STREQUAL "serve")
  # --- 3. Serve: six short jobs across three tenants, two per tenant, so
  #        the fair-share argmin scan, the requeue path and the charge map
  #        stay busy. --poll-ms 1 keeps the watcher thread scanning (and
  #        taking the scheduler mutex) concurrently with every slice;
  #        --timeslice 200 forces preempt/requeue traffic on the queue.
  set(spool ${work}/spool)
  set(results ${work}/results)
  file(REMOVE_RECURSE ${spool} ${results})
  foreach(pair "alice;3" "bob;5" "carol;7" "alice;1" "bob;9" "carol;11")
    list(GET pair 0 tenant)
    list(GET pair 1 byte)
    run_tsan(submit RC 0 ARGS submit --spool ${spool} --tenant ${tenant}
             --kind attack --mode tdc --traces 600 --key-byte ${byte})
  endforeach()
  run_tsan(serve RC 0 ARGS serve --spool ${spool} --results ${results}
           --threads 2 --timeslice 200 --poll-ms 1)
  foreach(job job_0000_alice job_0001_bob job_0002_carol
          job_0003_alice job_0004_bob job_0005_carol)
    if(NOT EXISTS ${results}/${job}/result.json)
      message(FATAL_ERROR "tsan serve run left no result for ${job}")
    endif()
  endforeach()
  file(REMOVE_RECURSE ${spool} ${results})

elseif(STEP STREQUAL "fabric")
  # --- 4. Fabric coordinator with a killed worker. The worker subprocesses
  #        run the same TSan binary, so snapshot writing rides along;
  #        --snapshot-every 100 keeps fabric_snapshot events (and the
  #        monitor threads' progress updates) overlapping the reap loop.
  set(coord ${work}/coord)
  file(REMOVE_RECURSE ${coord})
  run_tsan(coordinate RC 0 ARGS coordinate --circuit alu --mode tdc
           --key-byte 3 --traces 1200 --shards 3 --snapshot-every 100
           --kill-shard 1 --kill-after 200 --work-dir ${coord}
           --trace-out ${coord}.jsonl)
  if(NOT EXISTS ${coord}/merged.snap)
    message(FATAL_ERROR "tsan coordinate run left no merged snapshot")
  endif()
  file(REMOVE_RECURSE ${coord})
  file(REMOVE ${coord}.jsonl)
endif()

file(REMOVE_RECURSE ${work})
message(STATUS "tsan drill: ${STEP} is race-clean")
