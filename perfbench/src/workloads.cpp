#include "workloads.hpp"

#include <cmath>

#include "pipeline.hpp"

namespace perfbench {

std::vector<double> ladder(const ServeProfile& profile) {
  std::vector<double> rungs;
  for (double rate = profile.ladder_min_rps; rate < profile.ladder_max_rps * 1.0001;
       rate *= kLadderStep)
    rungs.push_back(std::round(rate));
  return rungs;
}

void record_pipeline(const PipelineResult& r, Outcome& out) {
  out.attempted += r.checks;
  out.failed += r.failures;
  if (r.failures > 0) out.problems.push_back("held-out output checks failed");
  out.kernel = r.kernel;
}

}  // namespace perfbench
