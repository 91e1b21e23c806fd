# Runs one command-line boundary case (see tests/CMakeLists.txt):
#
#   cmake -DEXE=<program> -DARGS=<a|b|...> -DEXIT=<code> [-DEXPECT=<text>]
#         -P cli_expect.cmake
#
# ARGS is '|'-separated (a ';' would split the add_test argument). Fails
# unless the program exits with EXIT and, when EXPECT is set, its stderr
# contains EXPECT.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, want ${EXIT}\n${err}")
endif()
if(DEFINED EXPECT)
  string(FIND "${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXE} ${ARGS}: stderr lacks '${EXPECT}':\n${err}")
  endif()
endif()
