# Fails when a simulator hot path updates a statistic by name:
# `stats_.counter("`, `stats_.average("` or `stats_.histogram("` under
# src/cpu, src/mem, src/net, src/row or in src/sim/faults.cc. Those
# sites bump pre-bound handles (CounterRef / AverageRef / HistogramRef,
# src/common/stats.hh) instead of building a key and searching a map.
#
#   cmake -DROOT=<repository root> -P tests/check_no_named_stat_updates.cmake
file(GLOB_RECURSE files RELATIVE "${ROOT}"
     "${ROOT}/src/cpu/*" "${ROOT}/src/mem/*" "${ROOT}/src/net/*"
     "${ROOT}/src/row/*")
list(APPEND files "src/sim/faults.cc")
set(offenders "")
foreach(f IN LISTS files)
    file(STRINGS "${ROOT}/${f}" hits
         REGEX "stats_\\.(counter|average|histogram)\\(\"")
    if(hits)
        list(APPEND offenders "${f}")
    endif()
endforeach()
if(offenders)
    message(FATAL_ERROR "string-keyed stat update on a hot path: "
                        "${offenders}")
endif()
