//===- domains/TextDomain.cpp - FlashFill-style text editing --------------===//

#include "domains/TextDomain.h"

#include "core/Primitives.h"

#include <cctype>

using namespace dc;

namespace {

/// Registers text-specific primitives (idempotent).
std::vector<ExprPtr> textPrimitives() {
  std::vector<ExprPtr> Out = prims::functionalCore();
  for (ExprPtr P : prims::listExtras())
    Out.push_back(P);

  // Character constants common in tabular text.
  for (char C : {' ', '.', ',', '-', '@', '<', '>'}) {
    std::string Name = std::string("'") + C + "'";
    Out.push_back(definePrimitive(Name, tChar(), Value::makeChar(C)));
  }

  Out.push_back(definePrimitive(
      "char-eq?", Type::arrows({tChar(), tChar()}, tBool()),
      [](EvalState &, std::span<const ValuePtr> A) -> ValuePtr {
        if (!A[0]->isChar() || !A[1]->isChar())
          return nullptr;
        return Value::makeBool(A[0]->asChar() == A[1]->asChar());
      }));
  Out.push_back(definePrimitive(
      "char-upcase", Type::arrows({tChar()}, tChar()),
      [](EvalState &, std::span<const ValuePtr> A) -> ValuePtr {
        if (!A[0]->isChar())
          return nullptr;
        return Value::makeChar(static_cast<char>(
            std::toupper(static_cast<unsigned char>(A[0]->asChar()))));
      }));
  Out.push_back(definePrimitive(
      "char-downcase", Type::arrows({tChar()}, tChar()),
      [](EvalState &, std::span<const ValuePtr> A) -> ValuePtr {
        if (!A[0]->isChar())
          return nullptr;
        return Value::makeChar(static_cast<char>(
            std::tolower(static_cast<unsigned char>(A[0]->asChar()))));
      }));
  // take-until / drop-until a delimiter: the FlashFill workhorses are
  // *derivable* (fold-based) but searchable corpora need them reachable;
  // keep the base minimal and let learning do the rest.
  return Out;
}

std::string takeUntil(const std::string &S, char D) {
  auto Pos = S.find(D);
  return Pos == std::string::npos ? S : S.substr(0, Pos);
}

std::string dropUntil(const std::string &S, char D) {
  auto Pos = S.find(D);
  return Pos == std::string::npos ? std::string() : S.substr(Pos + 1);
}

} // namespace

DomainSpec dc::makeTextDomain(unsigned Seed) {
  DomainSpec D;
  D.Name = "text";
  D.BasePrimitives = textPrimitives();
  D.Featurizer = std::make_shared<IoFeaturizer>();
  D.Search.InitialBudget = 9.0;
  D.Search.BudgetStep = 1.5;
  D.Search.MaxBudget = 15.0;
  D.Search.NodeBudget = 400000;
  D.Search.ExtraWindowsAfterSolution = 1;

  std::mt19937 Rng(Seed);
  std::vector<std::string> Words = {"alan", "turing", "grace",  "hopper",
                                    "ada",  "kurt",   "goedel", "alonzo",
                                    "church"};
  std::uniform_int_distribution<size_t> PickWord(0, Words.size() - 1);

  auto RandomName = [&] { return Words[PickWord(Rng)]; };

  TypePtr SS = Type::arrow(tString(), tString());

  struct Family {
    std::string Name;
    std::function<std::string(std::mt19937 &)> MakeInput;
    std::function<std::string(const std::string &)> Transform;
  };
  std::vector<Family> Families;

  auto WordInput = [&](std::mt19937 &R) {
    (void)R;
    return RandomName();
  };
  auto TwoWordInput = [&](std::mt19937 &R) {
    (void)R;
    return RandomName() + " " + RandomName();
  };
  auto DottedInput = [&](std::mt19937 &R) {
    (void)R;
    return RandomName() + "." + RandomName();
  };
  auto EmailInput = [&](std::mt19937 &R) {
    (void)R;
    return RandomName() + "@" + RandomName() + ".com";
  };

  Families.push_back({"identity", WordInput,
                      [](const std::string &S) { return S; }});
  Families.push_back({"drop-first-char", WordInput,
                      [](const std::string &S) { return S.substr(1); }});
  Families.push_back({"first-char", WordInput, [](const std::string &S) {
                        return S.substr(0, 1);
                      }});
  Families.push_back({"duplicate", WordInput,
                      [](const std::string &S) { return S + S; }});
  Families.push_back({"append-period", WordInput,
                      [](const std::string &S) { return S + "."; }});
  Families.push_back({"prepend-dash", WordInput,
                      [](const std::string &S) { return "-" + S; }});
  Families.push_back({"uppercase-all", WordInput,
                      [](const std::string &S) {
                        std::string Out;
                        for (char C : S)
                          Out += std::toupper(static_cast<unsigned char>(C));
                        return Out;
                      }});
  Families.push_back({"before-space", TwoWordInput,
                      [](const std::string &S) {
                        return takeUntil(S, ' ');
                      }});
  Families.push_back({"after-space", TwoWordInput,
                      [](const std::string &S) {
                        return dropUntil(S, ' ');
                      }});
  Families.push_back({"before-dot", DottedInput,
                      [](const std::string &S) { return takeUntil(S, '.'); }});
  Families.push_back({"after-dot", DottedInput,
                      [](const std::string &S) { return dropUntil(S, '.'); }});
  Families.push_back({"username-of-email", EmailInput,
                      [](const std::string &S) { return takeUntil(S, '@'); }});
  Families.push_back({"host-of-email", EmailInput,
                      [](const std::string &S) { return dropUntil(S, '@'); }});
  Families.push_back({"surround-with-angle-brackets", WordInput,
                      [](const std::string &S) { return "<" + S + ">"; }});
  Families.push_back({"space-to-dash", TwoWordInput,
                      [](const std::string &S) {
                        std::string Out = S;
                        for (char &C : Out)
                          if (C == ' ')
                            C = '-';
                        return Out;
                      }});
  Families.push_back({"drop-last-char", WordInput,
                      [](const std::string &S) {
                        return S.substr(0, S.size() - 1);
                      }});
  Families.push_back({"initial-dot", TwoWordInput,
                      [](const std::string &S) {
                        return S.substr(0, 1) + ".";
                      }});
  Families.push_back({"double-first-char", WordInput,
                      [](const std::string &S) {
                        return S.substr(0, 1) + S;
                      }});

  for (size_t I = 0; I < Families.size(); ++I) {
    const Family &F = Families[I];
    std::vector<Example> Ex;
    for (int K = 0; K < 5; ++K) {
      std::string In = F.MakeInput(Rng);
      Ex.push_back({{Value::makeString(In)},
                    Value::makeString(F.Transform(In))});
    }
    auto T = std::make_shared<Task>(F.Name, SS, std::move(Ex));
    if (I % 2 == 0)
      D.TrainTasks.push_back(T);
    else
      D.TestTasks.push_back(T);
  }
  return D;
}
