# Runs mpcsd_verify over ROOTS (a ;-list) and requires a usage error:
# exit code 2 and a message naming MISSING on stderr.  Exit 1 (findings)
# or 0 (a root silently skipped) fails the test.
#   cmake -DVERIFY=<mpcsd_verify> -DROOTS=<a;b> -DMISSING=<b> -P expect_usage_error.cmake
execute_process(COMMAND ${VERIFY} --quiet ${ROOTS}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "mpcsd_verify: ${MISSING}: ")
  message(FATAL_ERROR "expected a message naming ${MISSING}, got: ${err}")
endif()
