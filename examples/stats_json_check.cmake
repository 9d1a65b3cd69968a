# Runs `mfd_synth --lut 4 --stats-json OUT rd53` (SYNTH = the binary) and
# checks that the document holds the record fields and the bound-set
# search's counters (with 4-input LUTs rd53 takes one decomposition step, so
# its bound-set search scores candidates).
file(REMOVE ${OUT})
execute_process(COMMAND ${SYNTH} --lut 4 --stats-json ${OUT} rd53
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mfd_synth exited ${rc}")
endif()
file(READ ${OUT} doc)
foreach(field "\"circuit\":\"rd53\"" "\"flow\":\"mulop-dc\"" "\"lut_inputs\":4"
              "\"verified\":true" "\"clb_greedy\":" "\"report\":"
              "\"boundset.candidates_evaluated\":")
  string(FIND "${doc}" "${field}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${OUT} lacks ${field}")
  endif()
endforeach()
