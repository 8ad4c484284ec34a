# CLI smoke test driven by ctest: gen -> check -> sta -> atpg.
function(run_cli expect_rc)
  execute_process(COMMAND ${SLM} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "slm ${ARGN} -> rc=${rc} (expected ${expect_rc})\n${out}\n${err}")
  endif()
endfunction()

run_cli(0 gen --circuit rca --width 32 --out smoke_rca.bench)
run_cli(0 check smoke_rca.bench)
run_cli(2 check smoke_rca.bench --strict-clock-mhz 900)
run_cli(0 sta smoke_rca.bench --clock-mhz 50)
run_cli(0 gen --circuit c6288 --width 8 --out smoke_mult.bench)
run_cli(0 atpg smoke_mult.bench --band-lo 0.8 --band-hi 2.5)
# Checkpoint/resume flag validation fails fast, before any capture:
# resuming without a snapshot and halting without a checkpoint dir are
# both configuration errors (rc 1), not silent fresh starts.
run_cli(1 attack --resume smoke-no-such-dir)
run_cli(1 attack --halt-after 100)
# Block-pipeline knobs: an odd --block through the TDC campaign (rc 0,
# key recovered as without the flag), then the env overrides SLM_SIMD=0
# (forced-scalar block kernels) + SLM_BLOCK=7 through the blockable HW
# mode — 500 traces cannot recover the byte, so the deterministic
# outcome is rc 4, proving the fallback path runs end to end.
run_cli(0 attack --circuit alu --mode tdc --traces 6000 --key-byte 3 --block 5)
set(ENV{SLM_SIMD} 0)
set(ENV{SLM_BLOCK} 7)
run_cli(4 attack --circuit alu --mode hw --traces 500 --key-byte 3)
unset(ENV{SLM_SIMD})
unset(ENV{SLM_BLOCK})
run_cli(64 bogus-command)
# Every verb declares the flags it accepts: a retired flag and a typo are
# usage errors (rc 64) that name the flag, before anything runs.
foreach(bad "--rng-contract;v1" "--trace;100")
  list(GET bad 0 flag)
  execute_process(COMMAND ${SLM} attack --mode tdc ${bad}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 64 OR NOT err MATCHES "unknown option '${flag}'")
    message(FATAL_ERROR "slm attack ${bad} -> rc=${rc} (expected 64 naming ${flag})\n${out}\n${err}")
  endif()
endforeach()
message(STATUS "cli smoke: all subcommands behaved")
