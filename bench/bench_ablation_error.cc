// Ablation: the closed-form synchronous error (paper Sec. 4.2 case
// analysis) vs adaptive Simpson quadrature — agreement and speedup.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "stcomp/algo/time_ratio.h"
#include "stcomp/error/synchronous_error.h"
#include "stcomp/common/strings.h"
#include "stcomp/exp/table.h"
#include "stcomp/sim/paper_dataset.h"

int main() {
  stcomp::PaperDatasetConfig config;
  const std::vector<stcomp::Trajectory> dataset =
      stcomp::GeneratePaperDataset(config);
  std::printf(
      "Ablation: closed-form synchronous error vs adaptive Simpson "
      "(tolerance 1e-9)\n\n");
  stcomp::Table table({"trace", "points", "closed_form_m", "numeric_m",
                       "rel_diff", "closed_us", "numeric_us", "speedup"});
  for (const stcomp::Trajectory& trajectory : dataset) {
    const stcomp::Trajectory approximation =
        trajectory.Subset(
            stcomp::algo::Kept(stcomp::algo::TdTr, trajectory, 50.0));
    double closed = 0.0;
    double numeric = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < 50; ++r) {
      closed = stcomp::SynchronousError(trajectory, approximation).value();
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (int r = 0; r < 5; ++r) {
      numeric =
          stcomp::SynchronousErrorNumeric(trajectory, approximation, 1e-9)
              .value();
    }
    const auto t2 = std::chrono::steady_clock::now();
    const double closed_us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / 50;
    const double numeric_us =
        std::chrono::duration<double, std::micro>(t2 - t1).count() / 5;
    table.AddRow(
        {trajectory.name(), stcomp::StrFormat("%zu", trajectory.size()),
         stcomp::StrFormat("%.6f", closed),
         stcomp::StrFormat("%.6f", numeric),
         stcomp::StrFormat("%.2e",
                           std::abs(closed - numeric) / (numeric + 1e-300)),
         stcomp::StrFormat("%.1f", closed_us),
         stcomp::StrFormat("%.1f", numeric_us),
         stcomp::StrFormat("%.0fx", numeric_us / closed_us)});
  }
  std::printf("%s\n", table.ToString().c_str());
  return 0;
}
