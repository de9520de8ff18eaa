# Runs BIN with the space-separated ARGS and checks that it exits with
# status EXIT and that its stderr matches the regular expression EXPECT.
# The command-line rejection cases in CMakeLists.txt run through it:
#   cmake -DBIN=<exe> -DARGS="--bogus" -DEXIT=2 -DEXPECT="unknown flag"
#         -P tests/expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status '${rc}', want ${EXIT}\n"
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${EXPECT}'\n"
                      "stderr:\n${err}")
endif()
