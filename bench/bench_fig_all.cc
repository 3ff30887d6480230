// Regenerates EVERY figure of the paper in one run, plus the study totals of
// §IV, and times the full analysis pass. The underlying study is shared via
// the on-disk cache with the per-figure binaries.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_common.h"
#include "study/figures.h"

namespace {

void print_everything(const rv::study::StudyResult& result,
                      const rv::study::StudyConfig& config) {
  using namespace rv::study;
  std::cout << study_summary(result) << "\n";
  std::cout << fig01_buffering(config) << "\n";
  for (const Figure& fig : kFigures) std::cout << fig.render(result) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const rv::study::StudyConfig config = rv::bench::config_from_env();
  const auto& result = rv::bench::shared_study();
  rv::study::set_csv_export_dir("fig_data");
  print_everything(result, config);
  rv::study::set_csv_export_dir("");

  benchmark::RegisterBenchmark(
      "fig_all/full_analysis", [&result](benchmark::State& state) {
        for (auto _ : state) {
          benchmark::DoNotOptimize(rv::study::fig11_framerate_all(result));
          benchmark::DoNotOptimize(rv::study::fig20_jitter_all(result));
          benchmark::DoNotOptimize(rv::study::fig26_quality_all(result));
        }
      });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
