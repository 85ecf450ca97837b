//===- core/Serialization.cpp - Checkpointing grammars and frontiers ------===//

#include "core/Serialization.h"

#include "core/ProgramParser.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace dc;

namespace {

/// Task names may contain spaces; frontier headers take the rest of the
/// line. Newlines inside names are not representable and are replaced.
std::string sanitizeName(const std::string &Name) {
  std::string Out = Name;
  for (char &C : Out)
    if (C == '\n' || C == '\r')
      C = ' ';
  return Out;
}

bool fail(std::string *ErrorOut, const std::string &Msg) {
  if (ErrorOut && ErrorOut->empty())
    *ErrorOut = Msg;
  return false;
}

} // namespace

void dc::serializeGrammar(const Grammar &G, std::ostream &Out) {
  Out << "grammar v1\n";
  Out << "logVariable " << G.logVariable() << "\n";
  for (const Production &P : G.productions())
    Out << "production " << P.LogWeight << " " << P.Program->show() << "\n";
  Out << "end\n";
}

std::optional<Grammar> dc::deserializeGrammar(std::istream &In,
                                              std::string *ErrorOut) {
  std::string Line;
  if (!std::getline(In, Line) || Line != "grammar v1") {
    fail(ErrorOut, "missing 'grammar v1' header");
    return std::nullopt;
  }
  Grammar G;
  while (std::getline(In, Line)) {
    if (Line == "end")
      return G;
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag == "logVariable") {
      double LV;
      if (!(LS >> LV)) {
        fail(ErrorOut, "malformed logVariable line");
        return std::nullopt;
      }
      G.setLogVariable(LV);
    } else if (Tag == "production") {
      double W;
      if (!(LS >> W)) {
        fail(ErrorOut, "malformed production weight");
        return std::nullopt;
      }
      std::string Source;
      std::getline(LS, Source);
      std::string Err;
      ExprPtr P = parseProgram(Source, &Err);
      if (!P) {
        fail(ErrorOut, "production parse error: " + Err);
        return std::nullopt;
      }
      int Idx = G.addProduction(P);
      G.productions()[Idx].LogWeight = W;
    } else {
      fail(ErrorOut, "unknown grammar line tag '" + Tag + "'");
      return std::nullopt;
    }
  }
  fail(ErrorOut, "grammar block missing 'end'");
  return std::nullopt;
}

void dc::serializeFrontiers(const std::vector<Frontier> &Frontiers,
                            std::ostream &Out) {
  Out << "frontiers v1\n";
  for (const Frontier &F : Frontiers) {
    if (F.empty() || !F.task())
      continue;
    Out << "frontier " << sanitizeName(F.task()->name()) << "\n";
    Out << "request " << F.task()->request()->show() << "\n";
    for (const FrontierEntry &E : F.entries())
      Out << "entry " << E.LogPrior << " " << E.LogLikelihood << " "
          << E.Program->show() << "\n";
  }
  Out << "end\n";
}

int dc::deserializeFrontiers(std::vector<Frontier> &Frontiers,
                             std::istream &In, std::string *ErrorOut) {
  std::string Line;
  if (!std::getline(In, Line) || Line != "frontiers v1") {
    fail(ErrorOut, "missing 'frontiers v1' header");
    return 0;
  }
  int Restored = 0;
  Frontier *Current = nullptr;
  while (std::getline(In, Line)) {
    if (Line == "end")
      return Restored;
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag == "frontier") {
      std::string Name;
      std::getline(LS, Name);
      if (!Name.empty() && Name.front() == ' ')
        Name.erase(Name.begin());
      Current = nullptr;
      for (Frontier &F : Frontiers)
        if (F.task() && F.task()->name() == Name) {
          Current = &F;
          break;
        }
    } else if (Tag == "request") {
      continue; // informational
    } else if (Tag == "entry") {
      if (!Current)
        continue; // frontier for a task not in this corpus
      double Prior, LL;
      if (!(LS >> Prior >> LL))
        continue;
      std::string Source;
      std::getline(LS, Source);
      ExprPtr P = parseProgram(Source);
      if (!P)
        continue; // primitive set changed; skip gracefully
      Current->record({P, Prior, LL});
      ++Restored;
    }
  }
  fail(ErrorOut, "frontier block missing 'end'");
  return Restored;
}

std::optional<Grammar> dc::loadGrammarFile(const std::string &Path,
                                           std::string *ErrorOut) {
  std::ifstream In(Path);
  if (!In) {
    fail(ErrorOut, "cannot open " + Path);
    return std::nullopt;
  }
  return deserializeGrammar(In, ErrorOut);
}

bool dc::saveCheckpoint(const std::string &Path, const Grammar &G,
                        const std::vector<Frontier> &Frontiers) {
  std::ostringstream Text;
  serializeGrammar(G, Text);
  serializeFrontiers(Frontiers, Text);
  const std::string Data = Text.str();
  // Write a temporary file in the same directory, sync it, then rename it
  // over Path: a reader (dc_serve's reload) sees the old checkpoint or
  // the whole new one, never a torn one. The name is unique per process
  // and call, and O_EXCL never reuses a file it did not create.
  static std::atomic<unsigned> Counter{0};
  const std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) +
                          "." + std::to_string(Counter++);
  const int Fd =
      ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (Fd < 0)
    return false;
  bool Ok = true;
  for (size_t Off = 0; Ok && Off < Data.size();) {
    const ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N > 0)
      Off += static_cast<size_t>(N);
    else if (N == 0 || errno != EINTR)
      Ok = false;
  }
  Ok = Ok && ::fsync(Fd) == 0;
  Ok = ::close(Fd) == 0 && Ok;
  Ok = Ok && std::rename(Tmp.c_str(), Path.c_str()) == 0;
  if (!Ok)
    ::unlink(Tmp.c_str());
  return Ok;
}

bool dc::loadCheckpoint(const std::string &Path, Grammar &G,
                        std::vector<Frontier> &Frontiers,
                        std::string *ErrorOut) {
  std::ifstream In(Path);
  if (!In)
    return fail(ErrorOut, "cannot open " + Path);
  std::optional<Grammar> Loaded = deserializeGrammar(In, ErrorOut);
  if (!Loaded)
    return false;
  G = std::move(*Loaded);
  deserializeFrontiers(Frontiers, In, ErrorOut);
  return true;
}
