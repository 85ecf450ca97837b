//===- core/Hash.h - Hash combining, finalizing and a flat key map --------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hashing the interning tables and memos share: hashCombine builds a
/// node's structural hash from its fields (the value Type::hash() and
/// Expr::hash() report), mixHash spreads a hash's bits before a table
/// takes a shard or a probe start from its low bits, and FlatKeyMap is the
/// open-addressing map from 64-bit keys the memos use.
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_HASH_H
#define DC_CORE_HASH_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dc {

/// Combines hashes in the boost::hash_combine style. Its low bits carry
/// little of \p V's high bits, so a combine over aligned pointers keeps
/// their zero low bits: tables index by mixHash() of it.
inline size_t hashCombine(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// splitmix64's finalizer: every input bit moves every output bit.
inline uint64_t mixHash(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Open-addressing hash map from 64-bit keys (packed integers or
/// pointers) to trivially copyable values, kept at most half full. The
/// all-ones key is reserved for empty slots.
template <class Value> class FlatKeyMap {
public:
  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  const Value *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = mixHash(Key) & Mask;; I = (I + 1) & Mask) {
      if (Slots[I].Key == Key)
        return &Slots[I].Val;
      if (Slots[I].Key == EmptyKey)
        return nullptr;
    }
  }
  /// Inserts \p Key, which must be absent and not EmptyKey.
  void insert(uint64_t Key, const Value &Val) {
    if ((Count + 1) * 2 > Slots.size())
      grow();
    place(Key, Val);
    ++Count;
  }
  /// Number of keys inserted.
  size_t size() const { return Count; }
  /// Frees the storage.
  void release() {
    std::vector<Slot>().swap(Slots);
    Count = 0;
  }

private:
  struct Slot {
    uint64_t Key = EmptyKey;
    Value Val{};
  };
  void place(uint64_t Key, const Value &Val) {
    const size_t Mask = Slots.size() - 1;
    size_t I = mixHash(Key) & Mask;
    while (Slots[I].Key != EmptyKey)
      I = (I + 1) & Mask;
    Slots[I] = {Key, Val};
  }
  void grow() {
    std::vector<Slot> Old(std::max<size_t>(16, Slots.size() * 2));
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Key != EmptyKey)
        place(S.Key, S.Val);
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace dc

#endif // DC_CORE_HASH_H
