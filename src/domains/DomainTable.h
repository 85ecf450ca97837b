//===- domains/DomainTable.h - The evaluation domains by name -------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table of the domains the tools build by name (`dc_run
/// --domain`, `dc_serve --domain`): each name's builder, its default corpus
/// seed, and whether its corpus is fixed. Both tools build from it, so a
/// checkpoint written by `dc_run --domain X --seed S` loads under
/// `dc_serve --domain X --seed S` with the identical primitive registry.
///
//===----------------------------------------------------------------------===//

#ifndef DC_DOMAINS_DOMAINTABLE_H
#define DC_DOMAINS_DOMAINTABLE_H

#include "domains/Domain.h"

#include <span>
#include <string>
#include <string_view>

namespace dc {

/// One named domain.
struct DomainEntry {
  const char *Name;
  /// The domain's builder, taking its corpus seed.
  DomainSpec (*Make)(unsigned Seed);
  /// The corpus seed that seed 0 stands for.
  unsigned DefaultSeed;
  /// The corpus is a fixed set of ground-truth programs (logo, tower):
  /// the builder ignores its seed.
  bool FixedCorpus;

  /// The domain built from \p Seed, or from DefaultSeed when it is 0.
  DomainSpec build(unsigned Seed) const {
    return Make(Seed ? Seed : DefaultSeed);
  }
};

/// Every named domain, in the order usage texts list them.
std::span<const DomainEntry> domainTable();

/// The entry named \p Name, or null.
const DomainEntry *findDomain(std::string_view Name);

/// The domain names, separated by single spaces.
std::string domainNames();

} // namespace dc

#endif // DC_DOMAINS_DOMAINTABLE_H
