//===- vs/TopDown.cpp - Corpus-guided top-down abstraction proposals ------===//

#include "vs/TopDown.h"

#include "vs/VersionSpace.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_map>

using namespace dc;

//===----------------------------------------------------------------------===//
// Capture matching and the rewrite DP
//===----------------------------------------------------------------------===//

ExprPtr dc::detail::matchCapture(ExprPtr Anchor, ExprPtr Subject) {
  // Subject == Anchor[$0 := Arg]: walk both trees in lockstep. At an
  // anchor index below the local binder depth both sides must agree; at
  // the captured index (0 at anchor root) the subject's subtree,
  // un-shifted past the binders crossed, must be one consistent Arg; any
  // other free anchor index sits above the introduced binder, so the
  // subject carries it one lower.
  ExprPtr Arg = nullptr;
  std::function<bool(ExprPtr, ExprPtr, int)> Walk = [&](ExprPtr T, ExprPtr S,
                                                        int Depth) -> bool {
    if (T->kind() == ExprKind::Index) {
      int I = T->index();
      if (I < Depth)
        return S == T;
      if (I - Depth == 0) {
        ExprPtr A = Depth ? S->shift(-Depth) : S;
        if (!A)
          return false; // the subject leans on a pattern-internal binder
        if (Arg && Arg != A)
          return false; // two capture positions disagree
        Arg = A;
        return true;
      }
      return S->kind() == ExprKind::Index && S->index() == I - 1;
    }
    if (T->kind() != S->kind())
      return false;
    switch (T->kind()) {
    case ExprKind::Primitive:
    case ExprKind::Invented:
      return T == S;
    case ExprKind::Abstraction:
      return Walk(T->body(), S->body(), Depth + 1);
    case ExprKind::Application:
      return Walk(T->fn(), S->fn(), Depth) &&
             Walk(T->arg(), S->arg(), Depth);
    case ExprKind::Index:
      break; // handled above
    }
    return false;
  };
  return Walk(Anchor, Subject, 0) ? Arg : nullptr;
}

Extraction
dc::topDownRewriteMember(ExprPtr Program, const CompressionCandidate &C,
                         std::unordered_map<ExprPtr, Extraction> &Memo) {
  auto It = Memo.find(Program);
  if (It != Memo.end())
    return It->second;

  // Structural baseline: rewrite the children, keep this node. With
  // hash-consed expressions an unchanged subtree rebuilds to the same
  // pointer, so a fire-free program comes back as itself.
  Extraction Best;
  switch (Program->kind()) {
  case ExprKind::Index:
  case ExprKind::Primitive:
  case ExprKind::Invented:
    Best = {1.0, Program};
    break;
  case ExprKind::Abstraction: {
    Extraction B = topDownRewriteMember(Program->body(), C, Memo);
    Best = {ExtractionEpsilonCost + B.Cost, Expr::abstraction(B.Program)};
    break;
  }
  case ExprKind::Application: {
    Extraction Fn = topDownRewriteMember(Program->fn(), C, Memo);
    Extraction Arg = topDownRewriteMember(Program->arg(), C, Memo);
    Best = {ExtractionEpsilonCost + Fn.Cost + Arg.Cost,
            Expr::application(Fn.Program, Arg.Program)};
    break;
  }
  }

  // The same improvement order as the version-space extractionImproves:
  // strictly cheaper wins, exact-cost ties break by exprCompare.
  auto Improve = [&](double Cost, ExprPtr Member) {
    if (Cost != Best.Cost ? Cost < Best.Cost
                          : exprCompare(Member, Best.Program) < 0)
      Best = {Cost, Member};
  };

  // A literal anchor occurrence costs exactly 1, like any other leaf —
  // the extraction rule for the candidate node that makes inventions pay
  // for themselves through the description length they save.
  if (Program == C.AnchorTerm)
    Improve(1.0, C.RewriteExpr);

  // A capture site S = T[$0 := a] is what one β-inversion step exposes:
  // ((λ T') a) with the anchor T' directly under the introduced binder.
  // The member prices the redex (two internal nodes), the anchor
  // occurrence (1), and the argument's own best rewrite.
  if (C.CapturesArgument)
    if (ExprPtr A = detail::matchCapture(C.AnchorTerm, Program)) {
      Extraction Ra = topDownRewriteMember(A, C, Memo);
      Improve(1.0 + 2 * ExtractionEpsilonCost + Ra.Cost,
              Expr::application(Expr::abstraction(C.RewriteExpr),
                                Ra.Program));
    }

  Memo.emplace(Program, Best);
  return Best;
}

//===----------------------------------------------------------------------===//
// The proposer
//===----------------------------------------------------------------------===//

namespace {

/// One distinct subtree of the corpus: the unit of match-location
/// bookkeeping. Sites are stored in first-encounter (corpus) order so
/// every downstream iteration is deterministic; the unordered map over
/// hash-consed pointers is only ever used as an index.
struct Site {
  ExprPtr Root;
  std::vector<uint64_t> TaskBits; ///< which frontiers contain this subtree
  long Occurrences = 0;           ///< syntactic occurrences, all beams
};

struct SiteIndex {
  std::vector<Site> Sites;
  std::unordered_map<ExprPtr, int> Slot;
  size_t TaskWords = 0;

  void add(ExprPtr E, size_t Task) {
    auto [It, New] = Slot.emplace(E, static_cast<int>(Sites.size()));
    if (New) {
      Sites.push_back({E, std::vector<uint64_t>(TaskWords, 0), 0});
    }
    Site &S = Sites[It->second];
    S.TaskBits[Task / 64] |= uint64_t(1) << (Task % 64);
    ++S.Occurrences;
  }

  void walk(ExprPtr E, size_t Task) {
    add(E, Task);
    switch (E->kind()) {
    case ExprKind::Abstraction:
      walk(E->body(), Task);
      break;
    case ExprKind::Application:
      walk(E->fn(), Task);
      walk(E->arg(), Task);
      break;
    default:
      break; // inventions are leaves, exactly as incorporate() sees them
    }
  }
};

int popcount(const std::vector<uint64_t> &Bits) {
  int N = 0;
  for (uint64_t W : Bits)
    N += __builtin_popcountll(W);
  return N;
}

/// Pattern trees under refinement: holes are open positions, Var is the
/// single captured variable. Nodes are arena-allocated per state; Depth
/// is the binder depth of the position (fixed at creation).
struct PatNode {
  enum NodeKind { Hole, Var, Leaf, Abs, App } Kind = Hole;
  ExprPtr Atom = nullptr; ///< Leaf payload (index/primitive/invented)
  int A = -1, B = -1;     ///< children (Abs: A; App: A=fn, B=arg)
  int Depth = 0;
};

/// A pattern match at one site: the subtrees currently under each open
/// hole (aligned with State::Holes) and, once the pattern closed a hole
/// as the variable, the root-level captured argument.
struct SiteMatch {
  int SiteId = -1;
  std::vector<ExprPtr> HoleSubs;
  ExprPtr VarBinding = nullptr;
};

struct State {
  std::vector<PatNode> Nodes;
  int Root = 0;
  std::vector<int> Holes; ///< open hole node ids, leftmost-first
  std::vector<SiteMatch> Sites;
  bool HasVar = false;
};

/// A finished pattern rendered to the shared candidate shape, pre
/// usefulness filtering.
struct Completion {
  ExprPtr Term; ///< the anchor (open) term
  int Coverage = 0;
  double Utility = 0;
};

/// Renders a closed pattern to its anchor term. Var uses become the
/// capture index at their binder depth; literal indices that reach above
/// the pattern root shift past the (conceptual) capture binder.
ExprPtr renderAnchor(const State &S, int Node, bool VarMode) {
  const PatNode &N = S.Nodes[Node];
  switch (N.Kind) {
  case PatNode::Var:
    return Expr::index(N.Depth);
  case PatNode::Leaf:
    if (VarMode && N.Atom->kind() == ExprKind::Index &&
        N.Atom->index() >= N.Depth)
      return Expr::index(N.Atom->index() + 1);
    return N.Atom;
  case PatNode::Abs:
    return Expr::abstraction(renderAnchor(S, N.A, VarMode));
  case PatNode::App:
    return Expr::application(renderAnchor(S, N.A, VarMode),
                             renderAnchor(S, N.B, VarMode));
  case PatNode::Hole:
    break;
  }
  assert(false && "rendering a pattern with open holes");
  return nullptr;
}

/// Utility upper bound: every surviving site could at best compress all
/// its occurrences down to single leaves. Monotone non-increasing under
/// refinement (sites are only ever removed), which makes it a sound
/// branch-and-bound bound against completed utilities.
double utilityBound(const std::vector<SiteMatch> &Matches,
                    const std::vector<Site> &Sites) {
  double U = 0;
  for (const SiteMatch &M : Matches) {
    const Site &S = Sites[M.SiteId];
    U += static_cast<double>(S.Occurrences) * (S.Root->size() - 1);
  }
  return U;
}

int coverage(const std::vector<SiteMatch> &Matches,
             const std::vector<Site> &Sites, size_t TaskWords) {
  std::vector<uint64_t> Bits(TaskWords, 0);
  for (const SiteMatch &M : Matches)
    for (size_t W = 0; W < TaskWords; ++W)
      Bits[W] |= Sites[M.SiteId].TaskBits[W];
  return popcount(Bits);
}

} // namespace

std::vector<CompressionCandidate>
dc::proposeTopDown(const Grammar &G, const std::vector<Frontier> &Frontiers,
                   const CompressionParams &Params, TopDownStats *Stats) {
  TopDownStats Local;
  TopDownStats &St = Stats ? *Stats : Local;
  St = TopDownStats();

  // Index every distinct subtree of the hit corpus with its task set and
  // occurrence count.
  SiteIndex Index;
  Index.TaskWords = (Frontiers.size() + 63) / 64;
  for (size_t X = 0; X < Frontiers.size(); ++X)
    for (const FrontierEntry &E : Frontiers[X].entries())
      Index.walk(E.Program, X);
  St.SubtreeSites = static_cast<long>(Index.Sites.size());

  struct Finalized {
    detail::ProposedTerm Proposal;
    int Coverage = 0;
  };
  std::vector<Finalized> Candidates;
  auto finalize = [&](ExprPtr Term, int Cov) {
    if (Cov < MinimumTasksCovered)
      return;
    detail::ProposedTerm P = detail::finalizeProposal(Term, G);
    if (P.Term)
      Candidates.push_back({P, Cov});
  };

  // Family 1: literal common subtrees — complete, one pass, no search.
  for (const Site &S : Index.Sites) {
    if (S.Root->size() < 2)
      continue;
    finalize(S.Root, popcount(S.TaskBits));
  }

  // Family 2: capture patterns, grown hole-by-hole. Only meaningful when
  // the scoring side may introduce a binder at all (RefactorSteps ≥ 1; at
  // 0 the version-space path is the EC subtree baseline and capture
  // rewrites never fire).
  if (Params.RefactorSteps >= 1) {
    std::vector<State> Work;
    {
      State Init;
      Init.Nodes.push_back({});
      Init.Holes.push_back(0);
      for (int SI = 0; SI < static_cast<int>(Index.Sites.size()); ++SI)
        if (Index.Sites[SI].Root->size() >= 2)
          Init.Sites.push_back({SI, {Index.Sites[SI].Root}, nullptr});
      if (!Init.Sites.empty())
        Work.push_back(std::move(Init));
    }

    std::vector<Completion> Completions;
    // Largest completed utilities, capped at MaxCandidates: the B&B
    // threshold. (Heuristic recall control only — candidate ranking
    // below is by coverage, same as the version-space path.)
    std::vector<double> TopUtil;
    auto bnbThreshold = [&]() -> double {
      if (static_cast<int>(TopUtil.size()) < MaxCandidates)
        return -1.0;
      return *std::min_element(TopUtil.begin(), TopUtil.end());
    };

    while (!Work.empty()) {
      if (St.StatesExpanded >= Params.TopDownExpansionBudget) {
        St.BudgetExhausted = true;
        break;
      }
      State S = std::move(Work.back());
      Work.pop_back();
      ++St.StatesExpanded;

      int H = S.Holes.front();
      int Depth = S.Nodes[H].Depth;
      bool AtRoot = H == S.Root;

      // Bucket the sites by the head of the subtree under the front
      // hole, in first-encounter order (deterministic: the site list is
      // corpus-ordered).
      std::vector<std::pair<ExprPtr, std::vector<int>>> HeadBuckets;
      std::unordered_map<ExprPtr, int> HeadSlot;
      std::vector<int> VarSites; ///< var-closable here (new or reuse)
      for (int MI = 0; MI < static_cast<int>(S.Sites.size()); ++MI) {
        ExprPtr Sub = S.Sites[MI].HoleSubs.front();
        // Head key: leaves bucket by the atom itself; applications and
        // abstractions go to the structural buckets below (only the kind
        // matters for the refinement).
        ExprPtr Key = Sub->isIndex() || Sub->isLeafLike() ? Sub : nullptr;
        if (Key) {
          auto [It, New] = HeadSlot.emplace(
              Key, static_cast<int>(HeadBuckets.size()));
          if (New)
            HeadBuckets.push_back({Key, {}});
          HeadBuckets[It->second].second.push_back(MI);
        }
        if (!AtRoot) {
          ExprPtr Binding = Depth ? Sub->shift(-Depth) : Sub;
          if (Binding &&
              (!S.HasVar || S.Sites[MI].VarBinding == Binding))
            VarSites.push_back(MI);
        }
      }
      // Structural buckets (kept separate from atom buckets because the
      // key is a kind, not a subtree).
      std::vector<int> AbsSites, AppSites;
      for (int MI = 0; MI < static_cast<int>(S.Sites.size()); ++MI) {
        ExprKind K = S.Sites[MI].HoleSubs.front()->kind();
        if (K == ExprKind::Abstraction)
          AbsSites.push_back(MI);
        else if (K == ExprKind::Application)
          AppSites.push_back(MI);
      }

      // Materialize one child per refinement; admission = coverage gate
      // plus branch-and-bound on the utility upper bound.
      std::vector<State> Children;
      auto admit = [&](State &&Child) {
        if (Child.Sites.empty() ||
            coverage(Child.Sites, Index.Sites, Index.TaskWords) <
                MinimumTasksCovered) {
          ++St.StatesPruned;
          return;
        }
        if (utilityBound(Child.Sites, Index.Sites) < bnbThreshold()) {
          ++St.StatesPruned;
          return;
        }
        if (Child.Holes.empty()) {
          ++St.Completions;
          if (Child.HasVar) {
            double U = utilityBound(Child.Sites, Index.Sites);
            Completions.push_back(
                {renderAnchor(Child, Child.Root, /*VarMode=*/true),
                 coverage(Child.Sites, Index.Sites, Index.TaskWords), U});
            TopUtil.push_back(U);
            if (static_cast<int>(TopUtil.size()) > MaxCandidates) {
              TopUtil.erase(
                  std::min_element(TopUtil.begin(), TopUtil.end()));
            }
          }
          // Var-free completions are exactly the literal subtrees family
          // 1 already proposed; emitting them again would only burn the
          // dedup pass.
          return;
        }
        Children.push_back(std::move(Child));
      };

      // Refinement a: fix a concrete leaf observed at the sites.
      for (auto &[Atom, Members] : HeadBuckets) {
        State Child;
        Child.Nodes = S.Nodes;
        Child.Root = S.Root;
        Child.HasVar = S.HasVar;
        Child.Nodes[H].Kind = PatNode::Leaf;
        Child.Nodes[H].Atom = Atom;
        Child.Holes.assign(S.Holes.begin() + 1, S.Holes.end());
        for (int MI : Members) {
          SiteMatch M = S.Sites[MI];
          M.HoleSubs.erase(M.HoleSubs.begin());
          Child.Sites.push_back(std::move(M));
        }
        admit(std::move(Child));
      }
      // Refinement b: expand the hole into an abstraction.
      if (!AbsSites.empty()) {
        State Child;
        Child.Nodes = S.Nodes;
        Child.Root = S.Root;
        Child.HasVar = S.HasVar;
        int Body = static_cast<int>(Child.Nodes.size());
        Child.Nodes.push_back({PatNode::Hole, nullptr, -1, -1, Depth + 1});
        Child.Nodes[H].Kind = PatNode::Abs;
        Child.Nodes[H].A = Body;
        Child.Holes = S.Holes;
        Child.Holes.front() = Body;
        for (int MI : AbsSites) {
          SiteMatch M = S.Sites[MI];
          M.HoleSubs.front() = M.HoleSubs.front()->body();
          Child.Sites.push_back(std::move(M));
        }
        admit(std::move(Child));
      }
      // Refinement c: expand the hole into an application (two holes,
      // function first — leftmost-outermost growth).
      if (!AppSites.empty()) {
        State Child;
        Child.Nodes = S.Nodes;
        Child.Root = S.Root;
        Child.HasVar = S.HasVar;
        int Fn = static_cast<int>(Child.Nodes.size());
        Child.Nodes.push_back({PatNode::Hole, nullptr, -1, -1, Depth});
        int Arg = static_cast<int>(Child.Nodes.size());
        Child.Nodes.push_back({PatNode::Hole, nullptr, -1, -1, Depth});
        Child.Nodes[H].Kind = PatNode::App;
        Child.Nodes[H].A = Fn;
        Child.Nodes[H].B = Arg;
        Child.Holes = S.Holes;
        Child.Holes.front() = Fn;
        Child.Holes.insert(Child.Holes.begin() + 1, Arg);
        for (int MI : AppSites) {
          SiteMatch M = S.Sites[MI];
          ExprPtr Sub = M.HoleSubs.front();
          M.HoleSubs.front() = Sub->fn();
          M.HoleSubs.insert(M.HoleSubs.begin() + 1, Sub->arg());
          Child.Sites.push_back(std::move(M));
        }
        admit(std::move(Child));
      }
      // Refinement d: close the hole as the captured variable (the only
      // variable the pattern may use; reuse requires the same root-level
      // binding the first close recorded).
      if (!VarSites.empty()) {
        State Child;
        Child.Nodes = S.Nodes;
        Child.Root = S.Root;
        Child.HasVar = true;
        Child.Nodes[H].Kind = PatNode::Var;
        Child.Holes.assign(S.Holes.begin() + 1, S.Holes.end());
        for (int MI : VarSites) {
          SiteMatch M = S.Sites[MI];
          ExprPtr Sub = M.HoleSubs.front();
          M.VarBinding = Depth ? Sub->shift(-Depth) : Sub;
          M.HoleSubs.erase(M.HoleSubs.begin());
          Child.Sites.push_back(std::move(M));
        }
        admit(std::move(Child));
      }

      // LIFO worklist: push in reverse so refinements pop in the order
      // generated above (depth-first, leftmost refinement first).
      for (auto It = Children.rbegin(); It != Children.rend(); ++It)
        Work.push_back(std::move(*It));
    }

    for (const Completion &C : Completions)
      finalize(C.Term, C.Coverage);
  }

  // Rank exactly as the version-space path does — coverage descending —
  // with structural order as the deterministic tie-break (it has no
  // table-local node ids to fall back on). Dedup by invention body keeps
  // the best-covered variant; the body determines the anchor among
  // survivors, so downstream rewrite memos stay exclusive per candidate.
  std::stable_sort(Candidates.begin(), Candidates.end(),
                   [](const Finalized &A, const Finalized &B) {
                     if (A.Coverage != B.Coverage)
                       return A.Coverage > B.Coverage;
                     return exprCompare(A.Proposal.Term, B.Proposal.Term) <
                            0;
                   });
  std::vector<CompressionCandidate> Out;
  std::set<ExprPtr> SeenBodies;
  for (const Finalized &F : Candidates) {
    if (static_cast<int>(Out.size()) >= MaxCandidates)
      break;
    if (SeenBodies.insert(F.Proposal.Body).second)
      Out.push_back(detail::makeCandidate(F.Proposal, F.Coverage));
  }
  St.CandidatesProposed = static_cast<long>(Out.size());
  return Out;
}
