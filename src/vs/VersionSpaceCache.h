//===- vs/VersionSpaceCache.h - Content-addressed β-closure shard cache ---===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compression builds the β-closure of every beam program into a private
/// single-program VersionTable shard before folding the shards into one
/// master table (vs/Compression.cpp). Building a shard is the dominant
/// cost of abstraction sleep, and the same programs recur constantly:
/// near-identical beams across frontiers within a round, and untouched
/// beams across greedy adoption rounds and across wake-sleep cycles.
///
/// This cache makes the shard the unit of reuse. Programs are hash-consed
/// (core/Program.h), so an ExprPtr *is* a content address, and
/// betaClosure(P, Steps) evaluated in a fresh table is a pure function of
/// (P, Steps) — bit-identical table, ids and all, every time it is built.
/// A cache hit therefore yields exactly the table a rebuild would have
/// produced, which is why cached and uncached compression results are
/// byte-for-byte identical (gated by bench_vs_cache at 1/4/8 threads).
///
/// Eviction is LRU over a total-node budget. The overflow-degrade
/// contract (DESIGN.md §8): an attempt that overflows MaxVersionNodes
/// must evict every shard it installed before retrying at a shallower
/// inversion depth, so a degraded sleep never parks near-cap shards in
/// the cache; compressLibrary drives that via evict().
///
/// Thread safety: lookup/insert/evict take the cache mutex; the shards
/// themselves are immutable after construction and handed out as
/// shared_ptr<const VsClosureShard>, so any number of workers can absorb
/// from a hit concurrently with other lookups.
///
//===----------------------------------------------------------------------===//

#ifndef DC_VS_VERSIONSPACECACHE_H
#define DC_VS_VERSIONSPACECACHE_H

#include "vs/VersionSpace.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace dc {

/// One immutable cached closure shard: a private table holding
/// betaClosure(Program, Steps) built from a fresh VersionTable, plus the
/// root id of the closure inside it.
struct VsClosureShard {
  VersionTable Table;
  VsId Root = -1;
  ExprPtr Program = nullptr;
  int Steps = 0;

  size_t nodes() const { return Table.size(); }

  /// Builds the shard for (\p Program, \p Steps) from scratch. Pure: two
  /// builds of the same key produce bit-identical tables.
  static std::shared_ptr<const VsClosureShard> build(ExprPtr Program,
                                                     int Steps);
};

using VsClosureShardPtr = std::shared_ptr<const VsClosureShard>;

/// LRU cache of closure shards keyed on (program, inversion depth), with
/// hit/miss/eviction counters mirrored into obs telemetry. Cache state
/// affects wall-clock only, never results — every value is a pure
/// function of its key.
class VersionSpaceCache {
public:
  /// Default budget: total nodes across cached shards. Shards average a
  /// few thousand nodes, so this holds several thousand distinct beams.
  static constexpr size_t DefaultNodeBudget = 16u * 1024 * 1024;

  explicit VersionSpaceCache(size_t NodeBudget = DefaultNodeBudget)
      : NodeBudget(NodeBudget) {}

  /// The process-wide instance compressLibrary uses (never destroyed,
  /// same idiom as ThreadPool::shared()); spans adoption rounds and
  /// wake-sleep cycles so untouched beams never rebuild their closures.
  static VersionSpaceCache &global();

  /// Returns the cached shard for (\p Program, \p Steps), or null on
  /// miss. Touches the LRU clock.
  VsClosureShardPtr lookup(ExprPtr Program, int Steps);

  /// Installs \p Shard under its own (Program, Steps) key, evicting LRU
  /// entries to fit the node budget. Returns false when the shard was not
  /// cached (already present, or alone larger than the whole budget).
  bool insert(const VsClosureShardPtr &Shard);

  /// Drops one key; returns true when something was evicted. This is how
  /// an overflowed degrade attempt takes back the shards it installed.
  bool evict(ExprPtr Program, int Steps);

  /// Drops everything and zeroes the LRU clock (tests, benchmarks).
  void clear();

  struct Stats {
    long Hits = 0;
    long Misses = 0;
    long Evictions = 0;
    size_t Entries = 0;
    size_t Nodes = 0;
  };
  Stats stats() const;

  /// Zeroes the counters without touching cached shards (per-phase
  /// deltas in benchmarks).
  void resetStats();

private:
  struct Key {
    ExprPtr Program;
    int Steps;
    bool operator==(const Key &O) const {
      return Program == O.Program && Steps == O.Steps;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return K.Program->hash() * 31 + static_cast<size_t>(K.Steps);
    }
  };
  struct Entry {
    VsClosureShardPtr Shard;
    uint64_t LastUse = 0;
  };

  /// Must hold Mutex. Evicts least-recently-used entries until total
  /// nodes fit \p Target.
  void evictToFitLocked(size_t Target);

  mutable std::mutex Mutex;
  std::unordered_map<Key, Entry, KeyHash> Map;
  const size_t NodeBudget;
  size_t Nodes = 0;
  uint64_t Clock = 0;
  long Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace dc

#endif // DC_VS_VERSIONSPACECACHE_H
