# Fails when a file under src/, tools/ or bench/ other than
# src/sim/runspec.cc mentions getenv: every environment knob is read
# through the RunSpec knob table (src/sim/runspec.hh).
#
#   cmake -DROOT=<repository root> -P tests/check_single_env_reader.cmake
file(GLOB_RECURSE files RELATIVE "${ROOT}"
     "${ROOT}/src/*" "${ROOT}/tools/*" "${ROOT}/bench/*")
set(offenders "")
foreach(f IN LISTS files)
    if(NOT f STREQUAL "src/sim/runspec.cc")
        file(STRINGS "${ROOT}/${f}" hits REGEX "getenv")
        if(hits)
            list(APPEND offenders "${f}")
        endif()
    endif()
endforeach()
if(offenders)
    message(FATAL_ERROR "getenv outside src/sim/runspec.cc: ${offenders}")
endif()
