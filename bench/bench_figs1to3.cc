// Reproduces the paper's illustrative Figures 1-3: how top-down
// Douglas-Peucker and the two opening-window break strategies cut a
// 19-point data series. The paper's figures use an unspecified hand-drawn
// series; we construct a 19-point series with the same qualitative shape
// (four gentle bends) and print which data points each algorithm keeps,
// mirroring the captions:
//   Fig. 1: DP recursively cuts the series (at 16, 12, 8, 4 in the paper);
//   Fig. 2: NOPW breaks at the threshold-exceeding points;
//   Fig. 3: BOPW breaks just before the float.

#include <cmath>
#include <cstdio>

#include "stcomp/algo/douglas_peucker.h"
#include "stcomp/algo/opening_window.h"
#include "stcomp/common/strings.h"

namespace {

// 19 points: a wavy line whose bends sit near indices 4, 8, 12, 16, like
// the paper's sketch.
stcomp::Trajectory PaperSketchSeries() {
  std::vector<stcomp::TimedPoint> points;
  for (int i = 0; i < 19; ++i) {
    const double x = 10.0 * i;
    const double y = 12.0 * std::sin(i * 3.14159265358979323846 / 4.0);
    points.emplace_back(i, x, y);
  }
  return stcomp::Trajectory::FromPoints(std::move(points)).value();
}

void PrintKept(const char* label, const std::vector<int>& kept) {
  std::string line = stcomp::StrFormat("%-28s kept:", label);
  for (int index : kept) {
    line += stcomp::StrFormat(" %d", index);
  }
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main() {
  const stcomp::Trajectory series = PaperSketchSeries();
  std::printf(
      "Figures 1-3: cut-point behaviour on a 19-point series (threshold "
      "%.0f m)\n\n",
      8.0);
  PrintKept("Fig.1 Douglas-Peucker (DP)",
            stcomp::algo::Kept(stcomp::algo::DouglasPeucker, series, 8.0));
  PrintKept("Fig.2 NOPW (break at excess)",
            stcomp::algo::Kept(stcomp::algo::Nopw, series, 8.0));
  PrintKept("Fig.3 BOPW (break before)",
            stcomp::algo::Kept(stcomp::algo::Bopw, series, 8.0));
  std::printf(
      "\nAs in the paper: DP picks the bend apices top-down; NOPW cuts at "
      "the first point violating the window; BOPW cuts one before the "
      "float, advancing further per segment (higher compression, worse "
      "error — Fig. 8).\n");
  return 0;
}
