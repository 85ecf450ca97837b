//===- domains/RegexDomain.cpp - Generative regexes -----------------------===//

#include "domains/RegexDomain.h"

#include "core/Primitives.h"

#include <cctype>
#include <cmath>
#include <map>

using namespace dc;

TypePtr dc::tRegex() { return Type::constructor("regex"); }

namespace {

/// A generative regex AST (carried as an opaque value).
struct RegexNode {
  enum class Kind {
    Constant, ///< one fixed character
    Dot,      ///< any printable character, uniform
    Digit,    ///< 0-9 uniform
    Upper,    ///< A-Z uniform
    Lower,    ///< a-z uniform
    Concat,
    Kleene,   ///< geometric repetition, p(stop) = 1/2
    Maybe,    ///< present with probability 1/2
    Or        ///< fair choice
  };
  Kind K;
  char C = 0;
  std::shared_ptr<const RegexNode> A, B;
};

using RegexPtr = std::shared_ptr<const RegexNode>;

ValuePtr wrapRegex(RegexPtr R) {
  return Value::makeOpaque("regex", std::move(R));
}

RegexPtr unwrapRegex(const ValuePtr &V) {
  if (!V || !V->isOpaque() || V->opaqueTag() != "regex")
    return nullptr;
  return std::static_pointer_cast<const RegexNode>(V->opaquePayload());
}

RegexPtr leaf(RegexNode::Kind K, char C = 0) {
  auto N = std::make_shared<RegexNode>();
  N->K = K;
  N->C = C;
  return N;
}

RegexPtr node2(RegexNode::Kind K, RegexPtr A, RegexPtr B = nullptr) {
  auto N = std::make_shared<RegexNode>();
  N->K = K;
  N->A = std::move(A);
  N->B = std::move(B);
  return N;
}

constexpr int PrintableCount = 95;

/// Per-character emission probability for a leaf class.
double leafProb(const RegexNode &N, char C) {
  switch (N.K) {
  case RegexNode::Kind::Constant:
    return C == N.C ? 1.0 : 0.0;
  case RegexNode::Kind::Dot:
    return C >= 32 && C < 127 ? 1.0 / PrintableCount : 0.0;
  case RegexNode::Kind::Digit:
    return std::isdigit(static_cast<unsigned char>(C)) ? 0.1 : 0.0;
  case RegexNode::Kind::Upper:
    return std::isupper(static_cast<unsigned char>(C)) ? 1.0 / 26 : 0.0;
  case RegexNode::Kind::Lower:
    return std::islower(static_cast<unsigned char>(C)) ? 1.0 / 26 : 0.0;
  default:
    return 0.0;
  }
}

/// Exact P[regex emits s[i..j)] by memoized span DP.
class RegexMatcher {
public:
  explicit RegexMatcher(const std::string &S) : S(S) {}

  double probability(const RegexPtr &R) {
    return prob(R.get(), 0, static_cast<int>(S.size()));
  }

private:
  double prob(const RegexNode *R, int I, int J) {
    auto Key = std::make_tuple(R, I, J);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
    double P = 0;
    switch (R->K) {
    case RegexNode::Kind::Constant:
    case RegexNode::Kind::Dot:
    case RegexNode::Kind::Digit:
    case RegexNode::Kind::Upper:
    case RegexNode::Kind::Lower:
      P = J == I + 1 ? leafProb(*R, S[I]) : 0.0;
      break;
    case RegexNode::Kind::Concat:
      for (int K = I; K <= J; ++K) {
        double PA = prob(R->A.get(), I, K);
        if (PA > 0)
          P += PA * prob(R->B.get(), K, J);
      }
      break;
    case RegexNode::Kind::Kleene:
      // Stop now with prob 1/2 (empty remainder), or emit one non-empty
      // repetition and recurse.
      P = I == J ? 0.5 : 0.0;
      for (int K = I + 1; K <= J; ++K) {
        double PA = prob(R->A.get(), I, K);
        if (PA > 0)
          P += 0.5 * PA * prob(R, K, J);
      }
      break;
    case RegexNode::Kind::Maybe:
      P = (I == J ? 0.5 : 0.0) + 0.5 * prob(R->A.get(), I, J);
      break;
    case RegexNode::Kind::Or:
      P = 0.5 * prob(R->A.get(), I, J) + 0.5 * prob(R->B.get(), I, J);
      break;
    }
    Memo.emplace(Key, P);
    return P;
  }

  const std::string &S;
  std::map<std::tuple<const RegexNode *, int, int>, double> Memo;
};

bool sampleNode(const RegexNode *R, std::mt19937 &Rng, std::string &Out,
                int MaxLength, int Depth) {
  if (static_cast<int>(Out.size()) > MaxLength || Depth > 64)
    return false;
  std::uniform_real_distribution<double> U(0, 1);
  switch (R->K) {
  case RegexNode::Kind::Constant:
    Out += R->C;
    return true;
  case RegexNode::Kind::Dot: {
    std::uniform_int_distribution<int> D(32, 126);
    Out += static_cast<char>(D(Rng));
    return true;
  }
  case RegexNode::Kind::Digit: {
    std::uniform_int_distribution<int> D('0', '9');
    Out += static_cast<char>(D(Rng));
    return true;
  }
  case RegexNode::Kind::Upper: {
    std::uniform_int_distribution<int> D('A', 'Z');
    Out += static_cast<char>(D(Rng));
    return true;
  }
  case RegexNode::Kind::Lower: {
    std::uniform_int_distribution<int> D('a', 'z');
    Out += static_cast<char>(D(Rng));
    return true;
  }
  case RegexNode::Kind::Concat:
    return sampleNode(R->A.get(), Rng, Out, MaxLength, Depth + 1) &&
           sampleNode(R->B.get(), Rng, Out, MaxLength, Depth + 1);
  case RegexNode::Kind::Kleene:
    while (U(Rng) >= 0.5) {
      if (!sampleNode(R->A.get(), Rng, Out, MaxLength, Depth + 1))
        return false;
      if (static_cast<int>(Out.size()) > MaxLength)
        return false;
    }
    return true;
  case RegexNode::Kind::Maybe:
    if (U(Rng) < 0.5)
      return sampleNode(R->A.get(), Rng, Out, MaxLength, Depth + 1);
    return true;
  case RegexNode::Kind::Or:
    return sampleNode(U(Rng) < 0.5 ? R->A.get() : R->B.get(), Rng, Out,
                      MaxLength, Depth + 1);
  }
  return false;
}

std::vector<ExprPtr> regexPrimitives() {
  std::vector<ExprPtr> Out;
  TypePtr R = tRegex();
  auto Leaf = [&](const char *Name, RegexNode::Kind K) {
    Out.push_back(definePrimitive(Name, R, wrapRegex(leaf(K))));
  };
  Leaf("r-dot", RegexNode::Kind::Dot);
  Leaf("r-digit", RegexNode::Kind::Digit);
  Leaf("r-upper", RegexNode::Kind::Upper);
  Leaf("r-lower", RegexNode::Kind::Lower);
  for (char C : {'.', ',', '-', '$', ':', '(', ')', ' ', '0', '/'}) {
    std::string Name = std::string("r'") + C + "'";
    Out.push_back(
        definePrimitive(Name, R, wrapRegex(leaf(RegexNode::Kind::Constant,
                                                C))));
  }
  auto Unary = [&](const char *Name, RegexNode::Kind K) {
    Out.push_back(definePrimitive(
        Name, Type::arrows({R}, R),
        [K](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
          RegexPtr X = unwrapRegex(A[0]);
          if (!X)
            return nullptr;
          return wrapRegex(node2(K, X));
        }));
  };
  Unary("r-kleene", RegexNode::Kind::Kleene);
  Unary("r-maybe", RegexNode::Kind::Maybe);
  auto Binary = [&](const char *Name, RegexNode::Kind K) {
    Out.push_back(definePrimitive(
        Name, Type::arrows({R, R}, R),
        [K](EvalState &, const std::vector<ValuePtr> &A) -> ValuePtr {
          RegexPtr X = unwrapRegex(A[0]);
          RegexPtr Y = unwrapRegex(A[1]);
          if (!X || !Y)
            return nullptr;
          return wrapRegex(node2(K, X, Y));
        }));
  };
  Binary("r-concat", RegexNode::Kind::Concat);
  Binary("r-or", RegexNode::Kind::Or);
  return Out;
}

RegexPtr evaluateRegex(ExprPtr Program, long StepBudget) {
  ValuePtr V = runProgram(Program, {}, StepBudget);
  return unwrapRegex(V);
}

} // namespace

double dc::regexLogLikelihood(ExprPtr Program, const std::string &S,
                              long StepBudget) {
  RegexPtr R = evaluateRegex(Program, StepBudget);
  if (!R)
    return -std::numeric_limits<double>::infinity();
  RegexMatcher M(S);
  double P = M.probability(R);
  return P > 0 ? std::log(P) : -std::numeric_limits<double>::infinity();
}

std::optional<std::string> dc::sampleRegex(ExprPtr Program, std::mt19937 &Rng,
                                           int MaxLength) {
  RegexPtr R = evaluateRegex(Program, 50000);
  if (!R)
    return std::nullopt;
  std::string Out;
  if (!sampleNode(R.get(), Rng, Out, MaxLength, 0))
    return std::nullopt;
  return Out;
}

RegexTask::RegexTask(std::string Name, std::vector<std::string> Strings)
    : Task(std::move(Name), tRegex(), {}), Positive(std::move(Strings)) {
  for (const std::string &S : Positive)
    Examples.push_back({{}, Value::makeString(S)});
}

double RegexTask::logLikelihood(ExprPtr Program) const {
  RegexPtr R = evaluateRegex(Program, StepBudget);
  if (!R)
    return -std::numeric_limits<double>::infinity();
  double Total = 0;
  for (const std::string &S : Positive) {
    RegexMatcher M(S);
    double P = M.probability(R);
    if (P <= 0)
      return -std::numeric_limits<double>::infinity();
    Total += std::log(P);
  }
  return Total;
}

double dc::heldOutPerCharacter(const Frontier &F, const std::string &S) {
  if (F.empty())
    return -std::numeric_limits<double>::infinity();
  double LL = regexLogLikelihood(F.best()->Program, S);
  return LL / std::max<size_t>(1, S.size());
}

DomainSpec dc::makeRegexDomain(unsigned Seed) {
  DomainSpec D;
  D.Name = "regex";
  D.BasePrimitives = regexPrimitives();
  D.Featurizer = std::make_shared<IoFeaturizer>();
  D.Search.InitialBudget = 8.0;
  D.Search.BudgetStep = 1.5;
  D.Search.MaxBudget = 13.0;
  D.Search.NodeBudget = 150000;
  // Graded likelihoods: any matching regex "solves"; keep searching a bit
  // to diversify the beam toward better explanations.
  D.Search.ExtraWindowsAfterSolution = 2;

  std::mt19937 Rng(Seed);
  auto Digits = [&](int N) {
    std::string S;
    std::uniform_int_distribution<int> Dist('0', '9');
    for (int I = 0; I < N; ++I)
      S += static_cast<char>(Dist(Rng));
    return S;
  };

  struct Concept {
    const char *Name;
    std::function<std::string()> Sample;
  };
  // Each sample draws its digit groups last to first: the order gcc
  // evaluated the operands of the operator+ chains these once were, so
  // the corpus stays what it was, and no longer depends on the compiler.
  std::vector<Concept> Concepts = {
      {"phone",
       [&] {
         std::string Line = Digits(4), Exchange = Digits(3), Area = Digits(3);
         return "(" + Area + ") " + Exchange + "-" + Line;
       }},
      {"currency",
       [&] {
         std::string Cents = Digits(1), Dollars = Digits(1);
         return "$" + Dollars + "." + Cents + "0";
       }},
      {"decimal",
       [&] {
         std::string Fraction = Digits(2), Whole = Digits(1);
         return "-" + Whole + "." + Fraction;
       }},
      {"time",
       [&] {
         std::string Tenths = Digits(1), Seconds = Digits(2),
                     Minutes = Digits(2);
         return "-00:" + Minutes + ":" + Seconds + "." + Tenths;
       }},
      {"parenthesized",
       [&] {
         std::string Inner = Digits(2 + (Rng() % 3));
         return "(" + Inner + ")";
       }},
      {"date",
       [&] {
         std::string Year = Digits(4), Day = Digits(2), Month = Digits(2);
         return Month + "/" + Day + "/" + Year;
       }},
      {"integer-list", [&] { return Digits(1 + (Rng() % 4)); }},
      {"ratio",
       [&] {
         std::string Right = Digits(2), Left = Digits(1);
         return Left + ":" + Right;
       }},
      {"signed",
       [&] {
         std::string Magnitude = Digits(1 + (Rng() % 3));
         return "-" + Magnitude;
       }},
      {"code",
       [&] {
         std::string Number = Digits(3);
         std::uniform_int_distribution<int> U('A', 'Z');
         return std::string(1, static_cast<char>(U(Rng))) + "-" + Number;
       }},
      {"money-range",
       [&] {
         std::string High = Digits(2), Low = Digits(2);
         return "$" + Low + "-$" + High;
       }},
      {"dotted-pair",
       [&] {
         std::string Right = Digits(1), Left = Digits(1);
         return Left + "." + Right;
       }},
  };

  for (size_t I = 0; I < Concepts.size(); ++I) {
    std::vector<std::string> Strings;
    for (int K = 0; K < 5; ++K)
      Strings.push_back(Concepts[I].Sample());
    auto T = std::make_shared<RegexTask>(Concepts[I].Name,
                                         std::move(Strings));
    if (I % 3 == 2)
      D.TestTasks.push_back(T);
    else
      D.TrainTasks.push_back(T);
  }

  // Dreams: sample a regex program, emit strings from it.
  D.Hook = [](ExprPtr Program, const TaskPtr &Seed2,
              std::mt19937 &Rng2) -> TaskPtr {
    (void)Seed2;
    std::vector<std::string> Strings;
    std::string Sig;
    for (int K = 0; K < 5; ++K) {
      auto S = sampleRegex(Program, Rng2, 25);
      if (!S)
        return nullptr;
      Strings.push_back(*S);
      Sig += *S + "\x01";
    }
    return std::make_shared<RegexTask>("fantasy:" + Sig, std::move(Strings));
  };
  return D;
}
