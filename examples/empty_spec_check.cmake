# Runs mfd_synth (SYNTH = the binary) on a PLA with no outputs and on a BLIF
# whose .outputs list is empty, both written to DIR, and requires each run to
# exit 1 with an "error:" line. A crash ends in a signal, not in status 1, so
# it fails the check.
foreach(kind pla blif)
  set(input ${DIR}/empty_spec.${kind})
  if(kind STREQUAL "pla")
    file(WRITE ${input} ".i 2\n.o 0\n.e\n")
  else()
    file(WRITE ${input} ".model empty\n.inputs a b\n.outputs\n.end\n")
  endif()
  execute_process(COMMAND ${SYNTH} ${input}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "mfd_synth ${input} exited '${rc}', want 1")
  endif()
  string(FIND "${err}" "error:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "mfd_synth ${input} printed no error line: ${err}")
  endif()
endforeach()
