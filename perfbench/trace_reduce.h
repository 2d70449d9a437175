// The traced pass: TraceRing on, a registry snapshot before and after, and
// the reducer that folds the ring's spans by name into per-stage samples.
#ifndef FLEXIWALKER_PERFBENCH_TRACE_REDUCE_H_
#define FLEXIWALKER_PERFBENCH_TRACE_REDUCE_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/obs/trace.h"

namespace perfbench {

// Enables the global TraceRing and snapshots the registry on construction;
// Finish() snapshots again, takes the spans and disables the ring.
struct TracedRun {
  explicit TracedRun(size_t capacity = size_t{1} << 21);
  ~TracedRun();
  TracedRun(const TracedRun&) = delete;
  TracedRun& operator=(const TracedRun&) = delete;

  void Finish();

  RegistryValues before;
  RegistryValues after;
  std::vector<flexi::obs::TraceSpan> spans;
  bool wrapped = false;  // the ring filled up: early spans may be lost

 private:
  size_t capacity_;
};

// Span durations (us) grouped by span name, optionally only spans of one
// workload id (`workload` < 0 keeps all).
std::map<std::string, std::vector<double>> SpanDurations(
    const std::vector<flexi::obs::TraceSpan>& spans, int workload = -1);

}  // namespace perfbench

#endif  // FLEXIWALKER_PERFBENCH_TRACE_REDUCE_H_
