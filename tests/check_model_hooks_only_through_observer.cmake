# Fails when model code under src/cpu, src/mem, src/net or src/row
# reaches an observability consumer other than through its one
# `Observer *obs_` (src/sim/observer.hh): a profiler or span-tracker
# pointer (`prof_`, `spans_`), a check mask (`checkMask_`,
# `ROWSIM_CHECK_EVENT(checkMask_`) or the trace sinks (`Trace::`).
#
#   cmake -DROOT=<repository root> -P tests/check_model_hooks_only_through_observer.cmake
file(GLOB_RECURSE files RELATIVE "${ROOT}"
     "${ROOT}/src/cpu/*" "${ROOT}/src/mem/*" "${ROOT}/src/net/*"
     "${ROOT}/src/row/*")
set(offenders "")
foreach(f IN LISTS files)
    file(STRINGS "${ROOT}/${f}" hits
         REGEX "prof_|spans_|checkMask_|Trace::|ROWSIM_CHECK_EVENT\\(checkMask_")
    if(hits)
        list(APPEND offenders "${f}")
    endif()
endforeach()
if(offenders)
    message(FATAL_ERROR "observability reached around the observer: "
                        "${offenders}")
endif()
