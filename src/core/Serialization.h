//===- core/Serialization.h - Checkpointing grammars and frontiers --------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent checkpoints for long runs (the original system pickles its
/// state between wake/sleep cycles): grammars, frontiers, and wake-sleep
/// metrics serialize to a small line-oriented text format that round-trips
/// through the program parser. The format is deliberately human-readable —
/// a checkpoint doubles as a run report.
///
/// Format sketch:
///
///   grammar v1
///   logVariable <float>
///   production <float> <program s-expression>
///   ...
///   frontier <task name with no newlines>
///   request <type string -- informational only>
///   entry <logPrior> <logLikelihood> <program>
///   ...
///   end
///
/// Deserializing programs requires the referenced primitives to be
/// registered (domains register theirs on construction).
///
//===----------------------------------------------------------------------===//

#ifndef DC_CORE_SERIALIZATION_H
#define DC_CORE_SERIALIZATION_H

#include "core/Grammar.h"
#include "core/Task.h"

#include <iosfwd>
#include <optional>

namespace dc {

/// Writes \p G in the checkpoint format.
void serializeGrammar(const Grammar &G, std::ostream &Out);

/// Reads a grammar; nullopt on malformed input or unknown primitives.
/// \p ErrorOut receives a diagnostic on failure when non-null.
std::optional<Grammar> deserializeGrammar(std::istream &In,
                                          std::string *ErrorOut = nullptr);

/// Writes the beams (programs + scores) of \p Frontiers. Tasks themselves
/// are not serialized (they are reconstructed from the domain generator);
/// entries are keyed by task name.
void serializeFrontiers(const std::vector<Frontier> &Frontiers,
                        std::ostream &Out);

/// Restores beam entries into \p Frontiers by matching task names;
/// programs that no longer parse (changed primitive set) are skipped.
/// Returns the number of entries restored.
int deserializeFrontiers(std::vector<Frontier> &Frontiers, std::istream &In,
                         std::string *ErrorOut = nullptr);

/// Loads just the grammar section of a checkpoint file, ignoring any
/// frontier blocks after it — the load path of dc_serve, which needs the
/// learned library but reconstructs nothing task-specific. nullopt plus a
/// diagnostic on failure.
std::optional<Grammar> loadGrammarFile(const std::string &Path,
                                       std::string *ErrorOut = nullptr);

/// Convenience: grammar + frontiers to/from a file. Returns false on I/O
/// or parse failure. saveCheckpoint replaces \p Path atomically: on
/// failure the old file is left as it was and no temporary remains.
bool saveCheckpoint(const std::string &Path, const Grammar &G,
                    const std::vector<Frontier> &Frontiers);
bool loadCheckpoint(const std::string &Path, Grammar &G,
                    std::vector<Frontier> &Frontiers,
                    std::string *ErrorOut = nullptr);

} // namespace dc

#endif // DC_CORE_SERIALIZATION_H
