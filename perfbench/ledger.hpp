// The traced run: a per-layer ledger. One representative input per
// workload is replayed through the public functions of each layer, each
// call timed in a span from the benchmark's own code.
#pragma once

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

struct LayerValue {
  double value = 0.0;
  std::string note;  ///< how it was measured, when not obvious
};

/// Measures every per-layer metric of catalog.hpp. `workload` names the
/// end-to-end operation whose tracing overhead is measured. Failed answer
/// checks are recorded in `r`; the spans are written to `trace_out`.
std::map<std::string, LayerValue> run_ledger(const std::string& workload,
                                             const RunConfig& cfg,
                                             WorkloadResult& r,
                                             const std::string& trace_out);

}  // namespace perfbench
