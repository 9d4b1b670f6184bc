# Runs a CLI binary with a "|"-separated argument list and asserts the
# exit code. Driven by the SoakCli.* / BenchCli.* / ToolCli.* ctest cases
# in CMakeLists.txt:
#   cmake -DBIN=<path> "-DARGS=--frames|12x" -DEXPECT=2 -P cli_test.cmake
# "|" keeps empty arguments intact ("--fuzz-rounds" followed by "") where
# a ;-list would drop them. An exit-2 case is a usage error unless
# -DSTDERR=<regex> names the runtime failure its stderr must report;
# -DSTDOUT=<regex> names what stdout must show (e.g. --help's usage).

if(NOT DEFINED BIN OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "cli_test.cmake needs -DBIN=... and -DEXPECT=...")
endif()

set(args "")
if(DEFINED ARGS AND NOT ARGS STREQUAL "")
  string(REPLACE "|" ";" args "${ARGS}")
endif()

execute_process(
  COMMAND "${BIN}" ${args}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

get_filename_component(name "${BIN}" NAME)
if(NOT code EQUAL ${EXPECT})
  message(FATAL_ERROR
    "${name} ${ARGS}: exit ${code}, want ${EXPECT}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED STDOUT AND NOT out MATCHES "${STDOUT}")
  message(FATAL_ERROR
    "${name} ${ARGS}: stdout does not match '${STDOUT}'\nstdout:\n${out}")
endif()

if(DEFINED STDERR)
  if(NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR
      "${name} ${ARGS}: stderr does not match '${STDERR}'\nstderr:\n${err}")
  endif()
# Every usage error must actually print the usage block.
elseif(EXPECT EQUAL 2 AND NOT err MATCHES "usage: ${name}")
  message(FATAL_ERROR
    "${name} ${ARGS}: exit 2 without a usage message\nstderr:\n${err}")
endif()
