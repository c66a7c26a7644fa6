# The kv_store example as separate processes over one fresh directory: each
# command opens the store through PosixEnv (adopting the previous command's
# checkpoint), runs, and closes. Run by ctest as
#   cmake -DKV_STORE=<kv_store binary> -DDB_DIR=<fresh dir> -P kv_store_cli.cmake
file(REMOVE_RECURSE "${DB_DIR}")

function(kv expect)
  execute_process(COMMAND "${KV_STORE}" "${DB_DIR}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "kv_store ${ARGN}: exit ${rc}\n${out}${err}")
  endif()
  if(NOT "${out}" STREQUAL "${expect}")
    message(FATAL_ERROR "kv_store ${ARGN}: printed\n${out}expected\n${expect}")
  endif()
endfunction()

kv("inserted 1000 synthetic entries in batches of 4096\n" fill 1000)
kv("" put 42 777)
kv("" put 43 888)
kv("777\n" get 42)
kv("" del 42)
kv("(nil)\n" get 42)
kv("43 -> 888\n" range 40 50)
# Every command after `fill` reopened from segment files alone: the last
# checkpoint (a full fold, since `del` logged a tombstone) left one file
# and an empty log.
string(CONCAT stats "entries: 1001\nsegment files: 1\nadopted entries: 1001\n"
       "replayed wal records: 0\nseqno: 1003\n")
kv("${stats}" stats)
file(REMOVE_RECURSE "${DB_DIR}")
