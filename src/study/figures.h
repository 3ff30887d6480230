// Regenerates every figure of the paper's evaluation: an ASCII rendering of
// the plot plus a paper-vs-measured comparison block. CSV series are
// exported alongside when set_csv_export_dir() names a directory.
#pragma once

#include <string>

#include "study/study.h"

namespace rv::study {

// Figure 1 needs a single instrumented playout, not the whole study.
std::string fig01_buffering(const StudyConfig& config);

// Figures 3 and 4 are world maps in the paper; this prints their text
// equivalent: the server sites by backbone region and the default user
// population by country. Needs no study either.
std::string fig03_geography();

// Figures 5..28 in paper order, each rendered from a study: the one table
// `realdata fig N` and bench_fig_all look figures up in.
struct Figure {
  int number;
  std::string (*render)(const StudyResult& result);
};
extern const Figure kFigures[24];

// §IV totals: users, clips played, clips rated, unavailability.
std::string study_summary(const StudyResult& result);

// Optional CSV export directory for all figure series ("" disables).
void set_csv_export_dir(const std::string& dir);

}  // namespace rv::study
