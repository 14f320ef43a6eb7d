# Injected into the repository's own top-level configure with
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=perfbench/hook.cmake
# so the benchmark builds against the libraries exactly as the repository
# builds them. The deferred include runs perfbench/CMakeLists.txt once the
# top-level CMakeLists.txt has declared every library target.
include_guard(GLOBAL)
# Deferred arguments are expanded when the call runs, so pin the path now.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
  CALL include ${PERFBENCH_DIR}/CMakeLists.txt)
