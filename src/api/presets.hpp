// Config threading: map the deployment-level DictConfig onto each
// structure's own config type, and build type-erased dictionaries from a
// (kind, config) pair — the one place that knows every structure's
// constructor shape, so examples, integration tests, and benches can sweep
// growth presets without repeating it.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/dictionary.hpp"
#include "brt/brt.hpp"
#include "btree/btree.hpp"
#include "cob/cob_tree.hpp"
#include "cola/cola.hpp"
#include "cola/deamortized_cola.hpp"
#include "cola/deamortized_fc_cola.hpp"
#include "shard/sharded_dictionary.hpp"
#include "shuttle/shuttle_tree.hpp"
#include "storage/durable_dict.hpp"
#include "storage/posix_env.hpp"

namespace costream::api {

/// DictConfig -> the COLA family's config. Staging presets delegate to
/// cola::ingest_tuned() — the single source of the arena-sizing/tiered/
/// pointer-density mapping — so the two construction paths cannot diverge.
inline cola::ColaConfig to_cola_config(const DictConfig& c) {
  if (c.staging) {
    cola::ColaConfig cfg = cola::ingest_tuned(c.growth, c.batch_hint);
    cfg.tombstone_threshold = c.tombstone_threshold;
    cfg.compaction_threads = c.compaction_threads;
    return cfg;
  }
  cola::ColaConfig cfg;
  cfg.growth = c.growth;
  cfg.pointer_density = c.pointer_density;
  cfg.tombstone_threshold = c.tombstone_threshold;
  cfg.compaction_threads = c.compaction_threads;
  return cfg;
}

/// DictConfig -> the shuttle tree's config (growth scales buffer sizing).
inline shuttle::ShuttleConfig to_shuttle_config(const DictConfig& c) {
  shuttle::ShuttleConfig cfg;
  cfg.growth = c.growth;
  return cfg;
}

/// Build a type-erased dictionary of the named kind with the config's
/// growth tuning applied. Kinds: "cola", "shuttle", "deam", "fc-deam",
/// "btree", "brt", "cob" (the last three have no growth lever and ignore
/// the config). Throws std::invalid_argument on an unknown kind.
///
/// With cfg.shards > 1 the kind is built S times and wrapped in the
/// concurrent-ingest facade (shard/sharded_dictionary.hpp): each shard is
/// an independent single-writer instance of the SAME kind/config, behind
/// one Dictionary interface with worker-thread ingest and snapshot-fused
/// sharded reads. Splitters are learned from the first batch (or key-prefix
/// defaults); pass explicit boundaries by constructing ShardedDictionary
/// directly.
///
/// A non-empty durable_dir is accepted only for kind "cola" with one
/// shard and the staged (tiered) geometry, as DictConfig::durable builds
/// it: other kinds have no durable tier, S shards would share one WAL and
/// one manifest, and classic levels cannot be checkpointed. All three
/// throw std::invalid_argument (the last from the DurableDictionary).
inline AnyDictionary make_dictionary(const std::string& kind,
                                     const DictConfig& cfg = DictConfig{}) {
  if (!cfg.durable_dir.empty() && kind != "cola") {
    throw std::invalid_argument("make_dictionary: durable_dir requires kind cola, not " +
                                kind);
  }
  if (!cfg.durable_dir.empty() && cfg.shards > 1) {
    throw std::invalid_argument(
        "make_dictionary: durable_dir supports one shard (shards would share one WAL)");
  }
  if (cfg.shards > 1) {
    DictConfig inner_cfg = cfg;
    inner_cfg.shards = 1;
    shard::ShardedConfig<Key> sc;
    sc.shards = cfg.shards;
    return AnyDictionary(
        kind + "-s" + std::to_string(cfg.shards),
        shard::ShardedDictionary<AnyDictionary>(
            std::move(sc), [&kind, &inner_cfg](std::size_t) {
              return make_dictionary(kind, inner_cfg);
            }));
  }
  if (kind == "cola") {
    if (!cfg.durable_dir.empty()) {
      storage::DurableConfig dc;
      dc.inner = to_cola_config(cfg);
      dc.fsync_policy = static_cast<storage::FsyncPolicy>(cfg.durable_fsync);
      dc.spill_depth = cfg.spill_depth;
      return AnyDictionary(
          kind + "-durable",
          storage::DurableDictionary(
              std::make_unique<storage::PosixEnv>(cfg.durable_dir), dc));
    }
    std::string name = kind;
    if (cfg.compaction_threads > 0) {
      name += "-bg" + std::to_string(cfg.compaction_threads);
    }
    return AnyDictionary(std::move(name), cola::Gcola<>(to_cola_config(cfg)));
  }
  if (kind == "shuttle") {
    return AnyDictionary(kind, shuttle::ShuttleTree<>(to_shuttle_config(cfg)));
  }
  if (kind == "deam") return AnyDictionary(kind, cola::DeamortizedCola<>(cfg.growth));
  if (kind == "fc-deam") {
    return AnyDictionary(kind, cola::DeamortizedFcCola<>(cfg.growth));
  }
  if (kind == "btree") return AnyDictionary(kind, btree::BTree<>{});
  if (kind == "brt") return AnyDictionary(kind, brt::Brt<>{});
  if (kind == "cob") return AnyDictionary(kind, cob::CobTree<>{});
  throw std::invalid_argument("make_dictionary: unknown kind " + kind);
}

}  // namespace costream::api
