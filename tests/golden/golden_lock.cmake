# Golden lock: runs golden_gen into a fresh directory and byte-compares
# every file it writes with the checked-in copy under tests/golden/ and
# tests/fuzz/corpus/. golden_format_test decodes the STCT blobs; this
# script also locks the bytes of the WAL (STWL), wire (STNI), index
# (STIX) and checkpoint (STCK, STSM) seeds, the store images, the query
# answers and the kept lists, so a writer change that moves any byte of
# any format, an engine change that moves any hit or QueryStats count, or
# an algorithm change that moves any kept index, fails here.
#
#   cmake -DGOLDEN_GEN=<golden_gen> -DSOURCE_DIR=<tests dir>
#         -DOUT_DIR=<scratch dir> -P golden_lock.cmake

foreach(var GOLDEN_GEN SOURCE_DIR OUT_DIR)
  if(NOT ${var})
    message(FATAL_ERROR "golden_lock.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(
  COMMAND "${GOLDEN_GEN}" "${OUT_DIR}/golden" "${OUT_DIR}/fuzz/corpus"
  RESULT_VARIABLE gen_status
  OUTPUT_QUIET)
if(NOT gen_status EQUAL 0)
  message(FATAL_ERROR "golden_gen failed: ${gen_status}")
endif()

file(GLOB_RECURSE written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
list(LENGTH written written_count)
if(written_count EQUAL 0)
  message(FATAL_ERROR "golden_gen wrote no files")
endif()
set(mismatched "")
foreach(file IN LISTS written)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT_DIR}/${file}" "${SOURCE_DIR}/${file}"
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND mismatched "${file}")
  endif()
endforeach()
if(mismatched)
  list(JOIN mismatched "\n  " report)
  message(FATAL_ERROR
    "golden_gen output differs from the checked-in bytes:\n  ${report}")
endif()
message(STATUS "${written_count} golden files byte-identical")
