# fgparc --trip validation, run as a ctest entry (cmake -P).
#
# --trip is the value of every i64 parameter, so it sets the loop bounds.
# A --trip that drives an array subscript past its array is rejected
# before anything is compiled, in every mode: exit code 1 and one
# diagnostic naming --trip and the array bound.  --autotune exits nonzero
# when no point of the tune space is feasible (here: a gather whose
# indices leave their array, which no static check sees).  An in-range
# --trip, up to the array bound itself, still verifies.
#
# Usage:
#   cmake -DFGPARC=<fgparc exe> -DKERNELS=<kernels_fk dir>
#         -DWORK_DIR=<scratch dir> -P fgparc_trip_guard.cmake

if(NOT DEFINED FGPARC OR NOT DEFINED KERNELS OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "fgparc_trip_guard.cmake requires -DFGPARC, -DKERNELS, and -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_fgparc)
  execute_process(
    COMMAND ${FGPARC} ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
  set(status "${status}" PARENT_SCOPE)
endfunction()

function(expect_trip_rejected kernel trip diagnostic)
  foreach(mode --run --autotune --print-ir --compile-stats)
    run_fgparc("${KERNELS}/${kernel}.fk" ${mode} --trip ${trip})
    if(NOT status EQUAL 1)
      message(FATAL_ERROR
        "${kernel} ${mode} --trip ${trip}: exit ${status}, expected 1\n${err}")
    endif()
    if(NOT err STREQUAL "fgparc: ${diagnostic}\n")
      message(FATAL_ERROR
        "${kernel} ${mode} --trip ${trip}: wrong diagnostic:\n${err}")
    endif()
    if(NOT out STREQUAL "")
      message(FATAL_ERROR
        "${kernel} ${mode} --trip ${trip}: output before the diagnostic:\n${out}")
    endif()
  endforeach()
endfunction()

expect_trip_rejected(saxpy 5000
  "--trip 5000 is out of range for kernel saxpy: loop i = 0 .. 5000 reaches x[4999], but x has 1024 elements")
# stencil9 reads x[i+4]: its last valid trip is 1020, not the array size.
expect_trip_rejected(stencil9 1021
  "--trip 1021 is out of range for kernel stencil9: loop i = 4 .. 1021 reaches x[1024], but x has 1024 elements")
file(GLOB artifacts "${WORK_DIR}/TUNE_*" "${WORK_DIR}/BENCH_*")
if(artifacts)
  message(FATAL_ERROR "a rejected --trip wrote artifacts: ${artifacts}")
endif()

foreach(case "saxpy;1024" "stencil9;1020")
  list(GET case 0 kernel)
  list(GET case 1 trip)
  run_fgparc("${KERNELS}/${kernel}.fk" --run --trip ${trip})
  if(NOT status EQUAL 0 OR NOT out MATCHES "verified:     memory bit-identical")
    message(FATAL_ERROR
      "${kernel} --trip ${trip} must still verify (exit ${status}):\n${out}${err}")
  endif()
endforeach()

file(WRITE "${WORK_DIR}/gather.fk" [=[
kernel gather {
  param i64 n;
  array i64 idx[64];
  array f64 x[4];
  loop i = 0 .. n {
    i64 j = idx[i];
    x[j] = 1.0;
  }
}
]=])
run_fgparc("${WORK_DIR}/gather.fk" --autotune --trip 64)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "--autotune with no feasible point: exit ${status}, expected 1\n${err}")
endif()
if(NOT err MATCHES "^fgparc: no point of the tune space is feasible for kernel gather: .*array index out of bounds")
  message(FATAL_ERROR "--autotune with no feasible point: wrong diagnostic:\n${err}")
endif()

message(STATUS "fgparc --trip guard passed")
