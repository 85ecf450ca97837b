//===- vs/VersionSpaceCache.cpp - Content-addressed shard cache -----------===//

#include "vs/VersionSpaceCache.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace dc;

VsClosureShardPtr VsClosureShard::build(ExprPtr Program, int Steps) {
  auto Shard = std::make_shared<VsClosureShard>();
  Shard->Program = Program;
  Shard->Steps = Steps;
  Shard->Root = Shard->Table.betaClosure(Program, Steps);
  return Shard;
}

VersionSpaceCache &VersionSpaceCache::global() {
  // Never destroyed: shards may be referenced by in-flight compression
  // state during static teardown (same idiom as ThreadPool::shared()).
  static VersionSpaceCache *Instance = new VersionSpaceCache();
  return *Instance;
}

VsClosureShardPtr VersionSpaceCache::lookup(ExprPtr Program, int Steps) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find({Program, Steps});
  if (It == Map.end()) {
    ++Misses;
    obs::countAdd("vs_cache.shard.misses");
    return nullptr;
  }
  ++Hits;
  obs::countAdd("vs_cache.shard.hits");
  It->second.LastUse = ++Clock;
  return It->second.Shard;
}

bool VersionSpaceCache::insert(const VsClosureShardPtr &Shard) {
  std::lock_guard<std::mutex> Lock(Mutex);
  const size_t ShardNodes = Shard->nodes();
  if (ShardNodes > NodeBudget)
    return false; // would evict the whole cache for one entry
  Key K{Shard->Program, Shard->Steps};
  if (Map.count(K))
    return false; // concurrent builders raced; values are identical
  evictToFitLocked(NodeBudget - ShardNodes);
  Map.emplace(K, Entry{Shard, ++Clock});
  Nodes += ShardNodes;
  obs::countAdd("vs_cache.shard.installs");
  obs::gaugeSet("vs_cache.shard.nodes", static_cast<double>(Nodes));
  return true;
}

bool VersionSpaceCache::evict(ExprPtr Program, int Steps) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Map.find({Program, Steps});
  if (It == Map.end())
    return false;
  Nodes -= It->second.Shard->nodes();
  Map.erase(It);
  ++Evictions;
  obs::countAdd("vs_cache.shard.evictions");
  obs::gaugeSet("vs_cache.shard.nodes", static_cast<double>(Nodes));
  return true;
}

void VersionSpaceCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Map.clear();
  Nodes = 0;
  Clock = 0;
}

void VersionSpaceCache::evictToFitLocked(size_t Target) {
  while (Nodes > Target && !Map.empty()) {
    auto Victim = Map.begin();
    for (auto It = Map.begin(); It != Map.end(); ++It)
      if (It->second.LastUse < Victim->second.LastUse)
        Victim = It;
    Nodes -= Victim->second.Shard->nodes();
    Map.erase(Victim);
    ++Evictions;
    obs::countAdd("vs_cache.shard.evictions");
  }
}

VersionSpaceCache::Stats VersionSpaceCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return {Hits, Misses, Evictions, Map.size(), Nodes};
}

void VersionSpaceCache::resetStats() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Hits = Misses = Evictions = 0;
}
