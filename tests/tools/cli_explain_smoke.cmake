# Smoke test of the CLI explain surface, driven by ctest:
#   1. with pairs going to stdout, --report/--explain-out must keep
#      stdout pure (every stdout line is "id<TAB>id"; the human report
#      and explain rendering go to stderr);
#   2. --explain-out writes the stable JSONL report, byte-identical
#      across --threads 1 and --threads 4;
#   3. the `explain` subcommand (no pairs) prints the plan to stdout,
#      exits 0, marks the advisor's pruned settings in both renderings,
#      and its --dbms variant renders the relational operator tree.
# Usage: cmake -DSSJOIN_CLI=<binary> -DWORK_DIR=<dir> -P this_file

file(MAKE_DIRECTORY "${WORK_DIR}")
set(DATA "${WORK_DIR}/addr.txt")

function(run_cli)
  execute_process(COMMAND "${SSJOIN_CLI}" ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ssjoin ${ARGN} failed with ${rc}")
  endif()
endfunction()

run_cli(generate --kind address --n 600 --dup-fraction 0.2 --seed 5
        --out "${DATA}")

# --- 1. stdout purity under --report + --explain-out ------------------------
execute_process(
  COMMAND "${SSJOIN_CLI}" jaccard --input "${DATA}" --gamma 0.8 --algo pen
          --report --explain-out "${WORK_DIR}/explain_t1.jsonl" --threads 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "jaccard --report --explain-out failed with ${rc}")
endif()

string(REPLACE "\n" ";" stdout_lines "${stdout_text}")
set(pair_count 0)
foreach(line IN LISTS stdout_lines)
  if(line STREQUAL "")
    continue()
  endif()
  if(NOT line MATCHES "^[0-9]+\t[0-9]+$")
    message(FATAL_ERROR
            "stdout is not pure pair output; offending line: '${line}'")
  endif()
  math(EXPR pair_count "${pair_count} + 1")
endforeach()
if(pair_count EQUAL 0)
  message(FATAL_ERROR "jaccard join produced no pairs (vacuous test)")
endif()

if(NOT stderr_text MATCHES "EXPLAIN join")
  message(FATAL_ERROR "--report did not render the explain text on stderr")
endif()

file(READ "${WORK_DIR}/explain_t1.jsonl" explain_jsonl)
if(NOT explain_jsonl MATCHES "\"type\":\"explain\"")
  message(FATAL_ERROR "--explain-out did not write the explain header")
endif()
if(explain_jsonl MATCHES "seconds")
  message(FATAL_ERROR "stable explain JSONL leaked a wall-clock field")
endif()

# --- 2. stable JSONL is thread-count invariant ------------------------------
run_cli(jaccard --input "${DATA}" --gamma 0.8 --algo pen
        --explain-out "${WORK_DIR}/explain_t4.jsonl" --threads 4)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/explain_t1.jsonl"
                        "${WORK_DIR}/explain_t4.jsonl"
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "explain JSONL differs between --threads 1 and 4")
endif()

# --- 3. the explain subcommand ---------------------------------------------
execute_process(
  COMMAND "${SSJOIN_CLI}" explain --input "${DATA}" --gamma 0.8
          --explain-out "${WORK_DIR}/explain_cmd.jsonl"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout_text)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain subcommand failed with ${rc}")
endif()
if(NOT stdout_text MATCHES "EXPLAIN join")
  message(FATAL_ERROR "explain subcommand printed no report")
endif()
if(NOT stdout_text MATCHES "advisor search")
  message(FATAL_ERROR "explain subcommand printed no advisor table")
endif()
file(READ "${WORK_DIR}/explain_cmd.jsonl" cmd_jsonl)
if(NOT cmd_jsonl MATCHES "advisor_candidate")
  message(FATAL_ERROR "explain subcommand JSONL has no advisor table")
endif()
# The default cap of 4096 signatures/set leaves most settings to the
# bounded search's pruning; their rows stay in the table, marked.
if(NOT cmd_jsonl MATCHES "\"pruned\":true")
  message(FATAL_ERROR "explain subcommand JSONL marks no pruned setting")
endif()
if(NOT cmd_jsonl MATCHES "\"pruned\":false,\"chosen\":true")
  message(FATAL_ERROR "explain subcommand JSONL has no unpruned chosen row")
endif()
if(NOT stdout_text MATCHES "  pruned\n")
  message(FATAL_ERROR "explain subcommand text marks no pruned setting")
endif()

execute_process(
  COMMAND "${SSJOIN_CLI}" explain --input "${DATA}" --gamma 0.8 --dbms
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout_text)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "explain --dbms failed with ${rc}")
endif()
if(NOT stdout_text MATCHES "plan dbms_self")
  message(FATAL_ERROR "explain --dbms printed no relational plan tree")
endif()

message(STATUS "cli_explain_smoke passed")
