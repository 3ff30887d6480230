// Regenerates every figure of the paper's evaluation from a StudyResult:
// an ASCII rendering of the plot plus a paper-vs-measured comparison block.
// CSV series are exported alongside when `csv_dir` is non-empty.
#pragma once

#include <string>

#include "study/study.h"

namespace rv::study {

// Figure 1 needs a single instrumented playout, not the whole study.
std::string fig01_buffering(const StudyConfig& config);

std::string fig05_clips_per_user(const StudyResult& result);
std::string fig06_rated_per_user(const StudyResult& result);
std::string fig07_user_countries(const StudyResult& result);
std::string fig08_server_countries(const StudyResult& result);
std::string fig09_us_states(const StudyResult& result);
std::string fig10_availability(const StudyResult& result);
std::string fig11_framerate_all(const StudyResult& result);
std::string fig12_framerate_by_net(const StudyResult& result);
std::string fig13_bandwidth_by_net(const StudyResult& result);
std::string fig14_framerate_by_server_region(const StudyResult& result);
std::string fig15_framerate_by_user_region(const StudyResult& result);
std::string fig16_protocol_mix(const StudyResult& result);
std::string fig17_framerate_by_protocol(const StudyResult& result);
std::string fig18_bandwidth_by_protocol(const StudyResult& result);
std::string fig19_framerate_by_pc(const StudyResult& result);
std::string fig20_jitter_all(const StudyResult& result);
std::string fig21_jitter_by_net(const StudyResult& result);
std::string fig22_jitter_by_server_region(const StudyResult& result);
std::string fig23_jitter_by_user_region(const StudyResult& result);
std::string fig24_jitter_by_protocol(const StudyResult& result);
std::string fig25_jitter_by_bandwidth(const StudyResult& result);
std::string fig26_quality_all(const StudyResult& result);
std::string fig27_quality_by_net(const StudyResult& result);
std::string fig28_quality_vs_bandwidth(const StudyResult& result);

// Figures 5..28 in paper order: the one list `realdata fig N` and
// bench_fig_all both walk.
struct Figure {
  int number;
  std::string (*render)(const StudyResult& result);
};
inline constexpr Figure kFigures[] = {
    {5, &fig05_clips_per_user},
    {6, &fig06_rated_per_user},
    {7, &fig07_user_countries},
    {8, &fig08_server_countries},
    {9, &fig09_us_states},
    {10, &fig10_availability},
    {11, &fig11_framerate_all},
    {12, &fig12_framerate_by_net},
    {13, &fig13_bandwidth_by_net},
    {14, &fig14_framerate_by_server_region},
    {15, &fig15_framerate_by_user_region},
    {16, &fig16_protocol_mix},
    {17, &fig17_framerate_by_protocol},
    {18, &fig18_bandwidth_by_protocol},
    {19, &fig19_framerate_by_pc},
    {20, &fig20_jitter_all},
    {21, &fig21_jitter_by_net},
    {22, &fig22_jitter_by_server_region},
    {23, &fig23_jitter_by_user_region},
    {24, &fig24_jitter_by_protocol},
    {25, &fig25_jitter_by_bandwidth},
    {26, &fig26_quality_all},
    {27, &fig27_quality_by_net},
    {28, &fig28_quality_vs_bandwidth},
};

// §IV totals: users, clips played, clips rated, unavailability.
std::string study_summary(const StudyResult& result);

// Optional CSV export directory for all figure series ("" disables).
void set_csv_export_dir(const std::string& dir);

}  // namespace rv::study
