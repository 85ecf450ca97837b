//===- bench/BenchUtil.h - Shared helpers for experiment benches ----------===//
//
// Part of the DreamCoder C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small formatting helpers shared by the per-figure benchmark binaries.
/// Each binary regenerates one table/figure of the paper's evaluation at
/// reduced scale (see DESIGN.md's experiment index) and prints the same
/// rows/series the paper reports.
///
//===----------------------------------------------------------------------===//

#ifndef DC_BENCH_BENCHUTIL_H
#define DC_BENCH_BENCHUTIL_H

#include "serve/Json.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace dcbench {

/// Worker-thread count for parallel bench sections, from the DC_THREADS
/// environment variable (0 = one per hardware core, the default).
inline int threadsFromEnv() {
  const char *V = std::getenv("DC_THREADS");
  return V ? std::atoi(V) : 0;
}

/// Wall-clock stopwatch for speedup comparisons.
class WallTimer {
public:
  WallTimer() : Start(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - Start)
        .count();
  }

private:
  std::chrono::steady_clock::time_point Start;
};

/// Mirrors the bench's text output (every banner()/row()/note() made while
/// it is alive) into `BENCH_<name>.json` in the working directory, so CI
/// and plotting scripts can consume results without scraping stdout.
/// Declare one at the top of a bench's main(); the file is written when it
/// goes out of scope. Purely additive: the text output is unchanged.
class JsonReport {
public:
  explicit JsonReport(std::string BenchName) : Name(std::move(BenchName)) {
    active() = this;
  }
  ~JsonReport() {
    if (active() == this)
      active() = nullptr;
    write();
  }
  JsonReport(const JsonReport &) = delete;
  JsonReport &operator=(const JsonReport &) = delete;

  static JsonReport *&active() {
    static JsonReport *Current = nullptr;
    return Current;
  }

  void addSection(const std::string &Title) {
    Sections.push_back({Title, {}, {}});
  }
  void addRow(const std::string &Label, double Value,
              const std::string &Unit) {
    if (Sections.empty())
      addSection("");
    Sections.back().Rows.push_back({Label, Unit, Value});
  }
  void addNote(const std::string &Text) {
    if (Sections.empty())
      addSection("");
    Sections.back().Notes.push_back(Text);
  }

private:
  struct RowEntry {
    std::string Label, Unit;
    double Value;
  };
  struct Section {
    std::string Title;
    std::vector<RowEntry> Rows;
    std::vector<std::string> Notes;
  };

  void write() const {
    using dc::serve::Json;
    Json SectionsOut = Json::array();
    for (const Section &S : Sections) {
      Json Rows = Json::array();
      for (const RowEntry &E : S.Rows) {
        Json Row = Json::object();
        Row.set("label", Json::string(E.Label));
        Row.set("value", Json::number(E.Value));
        Row.set("unit", Json::string(E.Unit));
        Rows.push(std::move(Row));
      }
      Json Notes = Json::array();
      for (const std::string &N : S.Notes)
        Notes.push(Json::string(N));
      Json SectionOut = Json::object();
      SectionOut.set("title", Json::string(S.Title));
      SectionOut.set("rows", std::move(Rows));
      SectionOut.set("notes", std::move(Notes));
      SectionsOut.push(std::move(SectionOut));
    }
    Json Report = Json::object();
    Report.set("bench", Json::string(Name));
    Report.set("wall_seconds", Json::number(Timer.seconds()));
    Report.set("sections", std::move(SectionsOut));
    std::ofstream File("BENCH_" + Name + ".json");
    if (File)
      File << Report.dump() << "\n";
  }

  std::string Name;
  std::vector<Section> Sections;
  WallTimer Timer;
};

inline void banner(const std::string &Title) {
  std::printf("\n==== %s ====\n", Title.c_str());
  if (JsonReport *R = JsonReport::active())
    R->addSection(Title);
}

inline void row(const std::string &Label, double Value,
                const char *Unit = "") {
  std::printf("  %-34s %8.3f %s\n", Label.c_str(), Value, Unit);
  if (JsonReport *R = JsonReport::active())
    R->addRow(Label, Value, Unit);
}

inline void note(const std::string &Text) {
  std::printf("  %s\n", Text.c_str());
  if (JsonReport *R = JsonReport::active())
    R->addNote(Text);
}

inline double percent(int Num, int Den) {
  return Den == 0 ? 0.0 : 100.0 * Num / Den;
}

} // namespace dcbench

#endif // DC_BENCH_BENCHUTIL_H
