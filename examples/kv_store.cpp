// A miniature persistent key/value store: a DurableDictionary over one real
// directory. Every mutation reaches the write-ahead log before it is
// applied, each mutating command ends with a checkpoint (the store as a set
// of immutable segment files), and each start adopts those files and
// replays whatever the log holds past them.
//
//   build/examples/kv_store <dir> put <key> <value>
//   build/examples/kv_store <dir> get <key>
//   build/examples/kv_store <dir> del <key>
//   build/examples/kv_store <dir> range <lo> <hi>
//   build/examples/kv_store <dir> fill <n>        # bulk synthetic load
//   build/examples/kv_store <dir> stats
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "storage/durable_dict.hpp"
#include "storage/posix_env.hpp"

using namespace costream;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: kv_store <dir> put <key> <value> | get <key> | del <key>"
               " | range <lo> <hi> | fill <n> | stats\n");
  return 2;
}

std::uint64_t arg(char* s) { return std::strtoull(s, nullptr, 0); }

int run(int argc, char** argv) {
  const std::string cmd = argv[2];
  storage::DurableDictionary db(std::make_unique<storage::PosixEnv>(argv[1]));
  if (db.read_only()) {
    std::fprintf(stderr, "warning: serving read-only: %s\n",
                 db.corruption_detail().c_str());
  }
  bool mutated = false;
  if (cmd == "put" && argc == 5) {
    db.insert(arg(argv[3]), arg(argv[4]));
    mutated = true;
  } else if (cmd == "get" && argc == 4) {
    const auto v = db.find(arg(argv[3]));
    if (v) {
      std::printf("%llu\n", static_cast<unsigned long long>(*v));
    } else {
      std::printf("(nil)\n");
    }
  } else if (cmd == "del" && argc == 4) {
    db.erase(arg(argv[3]));
    mutated = true;
  } else if (cmd == "range" && argc == 5) {
    db.range_for_each(arg(argv[3]), arg(argv[4]), [](Key k, Value v) {
      std::printf("%llu -> %llu\n", static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(v));
    });
  } else if (cmd == "fill" && argc == 4) {
    // Bulk loads go through the batch path: one WAL record and one
    // cascaded merge per chunk instead of one per key (see the batch
    // contract in api/dictionary.hpp).
    const std::uint64_t n = arg(argv[3]);
    std::vector<Entry<>> chunk;
    chunk.reserve(4096);
    for (std::uint64_t i = 0; i < n;) {
      chunk.clear();
      for (; i < n && chunk.size() < 4096; ++i) chunk.push_back(Entry<>{mix64(i), i});
      db.insert_batch(chunk);
    }
    std::printf("inserted %llu synthetic entries in batches of 4096\n",
                static_cast<unsigned long long>(n));
    mutated = true;
  } else if (cmd == "stats" && argc == 3) {
    std::uint64_t entries = 0;
    db.for_each([&](Key, Value) { ++entries; });
    const storage::DurableStats& st = db.storage_stats();
    std::printf(
        "entries: %llu\nsegment files: %zu\nadopted entries: %llu\n"
        "replayed wal records: %llu\nseqno: %llu\n",
        static_cast<unsigned long long>(entries), db.live_segment_files(),
        static_cast<unsigned long long>(st.recovered_segment_entries),
        static_cast<unsigned long long>(st.recovered_wal_records),
        static_cast<unsigned long long>(db.seqno()));
  } else {
    return usage();
  }
  // The log alone would survive the close; the checkpoint lets the next
  // start adopt segment files instead of replaying it.
  if (mutated) db.checkpoint();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
