//===- domains/DomainTable.cpp - The evaluation domains by name -----------===//

#include "domains/DomainTable.h"

#include "domains/ListDomain.h"
#include "domains/LogoDomain.h"
#include "domains/OrigamiDomain.h"
#include "domains/PhysicsDomain.h"
#include "domains/RegexDomain.h"
#include "domains/RegressionDomain.h"
#include "domains/TextDomain.h"
#include "domains/TowerDomain.h"

using namespace dc;

namespace {

constexpr DomainEntry Table[] = {
    {"list", [](unsigned Seed) { return makeListDomain(Seed); }, 1, false},
    {"text", makeTextDomain, 2, false},
    {"logo", makeLogoDomain, 0, true},
    {"tower", makeTowerDomain, 0, true},
    {"regex", makeRegexDomain, 6, false},
    {"regression", makeRegressionDomain, 7, false},
    {"physics", makePhysicsDomain, 11, false},
    {"origami", makeOrigamiDomain, 5, false},
};

} // namespace

std::span<const DomainEntry> dc::domainTable() { return Table; }

const DomainEntry *dc::findDomain(std::string_view Name) {
  for (const DomainEntry &E : Table)
    if (Name == E.Name)
      return &E;
  return nullptr;
}

std::string dc::domainNames() {
  std::string Out;
  for (const DomainEntry &E : Table) {
    if (!Out.empty())
      Out += ' ';
    Out += E.Name;
  }
  return Out;
}
