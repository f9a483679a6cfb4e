# Prints a committed campaign spec in canonical form and diffs the
# bytes against its pinned copy, so the canonical writer (and with it
# every spec fingerprint) cannot drift unnoticed.
#
#   cmake -DAMMB_SWEEP=... -DSPEC=... -DGOLDEN=... -P spec_print.cmake
foreach(var AMMB_SWEEP SPEC GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

execute_process(
  COMMAND "${AMMB_SWEEP}" print "${SPEC}"
  OUTPUT_VARIABLE printed
  RESULT_VARIABLE print_rc)
if(NOT print_rc EQUAL 0)
  message(FATAL_ERROR "ammb_sweep print ${SPEC} failed (rc=${print_rc})")
endif()

file(READ "${GOLDEN}" expected)
if(NOT printed STREQUAL expected)
  message(FATAL_ERROR
          "ammb_sweep print ${SPEC} differs from ${GOLDEN}:\n${printed}")
endif()
