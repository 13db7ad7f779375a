# End-to-end smoke test of the ssjoin CLI, driven by ctest:
#   1. generate an address dataset;
#   2. run the exact jaccard join with PartEnum and with Pair-Count;
#   3. require byte-identical output (both are exact);
#   4. run the edit-distance join and require non-empty output;
#   5. require out-of-range numeric flags to be refused with
#      InvalidArgument (exit 1) instead of crashing or wrapping.
# Usage: cmake -DSSJOIN_CLI=<binary> -DWORK_DIR=<dir> -P this_file

file(MAKE_DIRECTORY "${WORK_DIR}")
set(DATA "${WORK_DIR}/addr.txt")
set(OUT_PEN "${WORK_DIR}/pen.tsv")
set(OUT_PC "${WORK_DIR}/paircount.tsv")
set(OUT_EDIT "${WORK_DIR}/edit.tsv")

function(run_cli)
  execute_process(COMMAND "${SSJOIN_CLI}" ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ssjoin ${ARGN} failed with ${rc}")
  endif()
endfunction()

# Runs the CLI and requires exit 1 with "Invalid argument: <flag> ..."
# on stderr.
function(run_cli_expect_error flag)
  execute_process(COMMAND "${SSJOIN_CLI}" ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "Invalid argument: ${flag} ")
    message(FATAL_ERROR
            "ssjoin ${ARGN}: expected InvalidArgument for ${flag}, "
            "got exit ${rc}: ${err}")
  endif()
endfunction()

run_cli(generate --kind address --n 800 --dup-fraction 0.2 --out "${DATA}")
run_cli(jaccard --input "${DATA}" --gamma 0.8 --algo pen --out "${OUT_PEN}")
run_cli(jaccard --input "${DATA}" --gamma 0.8 --algo paircount
        --out "${OUT_PC}")

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT_PEN}"
                        "${OUT_PC}" RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "PartEnum and Pair-Count outputs differ")
endif()

file(SIZE "${OUT_PEN}" pen_size)
if(pen_size EQUAL 0)
  message(FATAL_ERROR "jaccard join produced no pairs (vacuous test)")
endif()

run_cli(edit --input "${DATA}" --k 2 --out "${OUT_EDIT}")
file(SIZE "${OUT_EDIT}" edit_size)
if(edit_size EQUAL 0)
  message(FATAL_ERROR "edit join produced no pairs (vacuous test)")
endif()

set(BAD "${WORK_DIR}/refused.txt")
run_cli_expect_error(--n generate --n -1 --out "${BAD}")
run_cli_expect_error(--typos generate --typos 0 --out "${BAD}")
run_cli_expect_error(--typos generate --typos 4294967296 --out "${BAD}")
run_cli_expect_error(--dup-fraction generate --dup-fraction 1.5 --out "${BAD}")
run_cli_expect_error(--dup-fraction generate --dup-fraction -0.1
                     --out "${BAD}")
run_cli_expect_error(--bitmap-bits jaccard --input "${DATA}" --gamma 0.8
                     --bitmap-bits 4294967360 --out "${BAD}")
# 2^44 MB: the byte count would wrap to 0, turning the limit off.
run_cli_expect_error(--memory-budget-mb jaccard --input "${DATA}" --gamma 0.8
                     --memory-budget-mb 17592186044416 --out "${BAD}")
run_cli_expect_error(--disk-budget-mb jaccard --input "${DATA}" --gamma 0.8
                     --disk-budget-mb 17592186044416 --out "${BAD}")

message(STATUS "cli_end_to_end passed")
