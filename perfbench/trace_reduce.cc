#include "perfbench/trace_reduce.h"

namespace perfbench {

TracedRun::TracedRun(size_t capacity) : capacity_(capacity) {
  before = SnapshotRegistry();
  flexi::obs::TraceRing::Global().Enable(capacity);
}

TracedRun::~TracedRun() { flexi::obs::TraceRing::Global().Disable(); }

void TracedRun::Finish() {
  after = SnapshotRegistry();
  flexi::obs::TraceRing& ring = flexi::obs::TraceRing::Global();
  spans = ring.Snapshot();
  wrapped = spans.size() >= capacity_;
  ring.Disable();
}

std::map<std::string, std::vector<double>> SpanDurations(
    const std::vector<flexi::obs::TraceSpan>& spans, int workload) {
  std::map<std::string, std::vector<double>> by_name;
  for (const flexi::obs::TraceSpan& span : spans) {
    if (workload < 0 || span.workload_id == static_cast<uint32_t>(workload)) {
      by_name[span.name].push_back(static_cast<double>(span.dur_us));
    }
  }
  return by_name;
}

}  // namespace perfbench
