// Regenerates EVERY figure of the paper in one run, plus the study totals of
// §IV, exports their CSV series to fig_data/, and times the analysis pass
// over three representative figures (11, 20, 26). The study comes from the
// on-disk cache that `realdata` shares (`realdata fig N` prints one figure).
//
// Environment overrides (useful on slow machines):
//   RV_PLAY_SCALE  — fraction of each user's playlist to simulate (default 1)
//   RV_THREADS     — worker threads for the study (default: hardware)
//   RV_SEED        — study master seed (default 2001)
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "study/cache.h"
#include "study/figures.h"

namespace {

using namespace rv::study;

StudyConfig config_from_env() {
  StudyConfig config;
  if (const char* scale = std::getenv("RV_PLAY_SCALE")) {
    config.play_scale = std::atof(scale);
  }
  if (const char* threads = std::getenv("RV_THREADS")) {
    config.threads = std::atoi(threads);
  }
  if (const char* seed = std::getenv("RV_SEED")) {
    config.seed = static_cast<std::uint64_t>(std::atoll(seed));
  }
  return config;
}

void print_everything(const StudyResult& result, const StudyConfig& config) {
  std::cout << study_summary(result) << "\n";
  std::cout << fig01_buffering(config) << "\n";
  std::cout << fig03_geography() << "\n";
  for (const Figure& fig : kFigures) std::cout << fig.render(result) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const StudyConfig config = config_from_env();
  const StudyResult result = run_study_cached(config);
  set_csv_export_dir("fig_data");
  print_everything(result, config);
  set_csv_export_dir("");  // don't rewrite CSVs per benchmark iteration

  benchmark::RegisterBenchmark(
      "fig_all/full_analysis", [&result](benchmark::State& state) {
        for (auto _ : state) {
          for (const Figure& fig : kFigures) {
            if (fig.number == 11 || fig.number == 20 || fig.number == 26) {
              benchmark::DoNotOptimize(fig.render(result));
            }
          }
        }
      });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
