# Run CMD with the space-separated ARGS and fail unless it exits with
# code EXPECT and its combined stdout/stderr matches the regex OUTPUT.
# Standard input is empty, so a tool that reads it cannot block.
#   cmake -DCMD=<exe> -DARGS="<args>" -DEXPECT=<code> -DOUTPUT=<regex>
#         -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${arg_list}
                INPUT_FILE /dev/null
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
    message(FATAL_ERROR "'${CMD} ${ARGS}' exited with '${rc}', want "
                        "${EXPECT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${out}${err}" MATCHES "${OUTPUT}")
    message(FATAL_ERROR "'${CMD} ${ARGS}' output does not match "
                        "'${OUTPUT}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
