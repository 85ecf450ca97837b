//===- domains/LogoDomain.h - LOGO turtle graphics (paper §5) -------------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inverse graphics: each task is a raster image and the system synthesizes
/// a LOGO turtle program that draws it. The substrate is a full turtle
/// simulator (pen state, canvas rasterizer) exposed through functional
/// primitives: move(length, angle), for-loops, and an embed operator that
/// saves/restores the pen state — the paper's base language.
///
/// Programs have type turtle -> turtle; the likelihood renders the final
/// turtle trace onto a grid and requires an exact cell-set match with the
/// target image (targets are produced by the same renderer).
///
//===----------------------------------------------------------------------===//

#ifndef DC_DOMAINS_LOGODOMAIN_H
#define DC_DOMAINS_LOGODOMAIN_H

#include "domains/Domain.h"

#include <bitset>

namespace dc {

/// Immutable turtle state threaded through LOGO programs as an opaque
/// value. Drawing accumulates line segments; rendering happens at task
/// scoring time.
struct TurtleState {
  double X = 0, Y = 0;
  double Heading = 0; ///< radians, 0 = +x
  struct Segment {
    double X0, Y0, X1, Y1;
  };
  std::vector<Segment> Segments;
};

/// The canonical LOGO type (an opaque constructor).
TypePtr tTurtle();

/// Fresh turtle at the canvas origin.
ValuePtr initialTurtle();

/// Side of the square canvas LOGO images are drawn on.
constexpr int LogoCanvasSize = 32;

/// The canvas cells a turtle's trace crosses: bit i is cell i.
using TurtleRaster = std::bitset<LogoCanvasSize * LogoCanvasSize>;

/// Rasterizes the turtle's trace onto the canvas, on the caller's stack:
/// what LogoTask::logLikelihood compares, once per scored program.
TurtleRaster rasterizeTurtle(const ValuePtr &Turtle);

/// The sorted indices of rasterizeTurtle's occupied cells (the image
/// representation of the corpus, featurization, and dreaming).
std::vector<int> renderTurtle(const ValuePtr &Turtle);

/// Task: match a target cell set; used both for the corpus and for dreams.
class LogoTask : public Task {
public:
  LogoTask(std::string Name, std::vector<int> TargetCells);
  double logLikelihood(ExprPtr Program) const override;
  const std::vector<int> &targetCells() const { return Cells; }

private:
  std::vector<int> Cells;
  TurtleRaster Target;    ///< Cells as a raster
  bool Matchable = false; ///< Cells has the shape of a rendering
};

/// Featurizer: downsampled occupancy grid of the target image.
class LogoFeaturizer : public TaskFeaturizer {
public:
  int dimension() const override { return 16 * 16; }
  std::vector<float> featurize(const Task &T) const override;
};

/// One ground-truth figure of the corpus: a task name and the program
/// that draws it.
struct LogoFigure {
  const char *Name;
  std::string Source;
};

/// The corpus figures, in the order makeLogoDomain renders each one into
/// its task's target image.
std::vector<LogoFigure> logoCorpusFigures();

/// Builds the LOGO domain: polygons, stars, lines, and nested/embedded
/// figures, split into train and test.
DomainSpec makeLogoDomain(unsigned Seed = 3);

} // namespace dc

#endif // DC_DOMAINS_LOGODOMAIN_H
