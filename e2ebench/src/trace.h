// Span recorder for the traced run.
//
// Spans are taken only in the benchmark's own code, around its calls into
// the program's layers. Each client thread owns one SpanLog, so recording
// takes no lock; logs stay in memory and are written out after the run.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  const char* name = "";  // a string literal
  uint64_t id = 0;        // unique across logs; 0 is "no span"
  uint64_t parent = 0;
  uint64_t session = 0;   // index of the session in the workload's script
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// The spans of one thread.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  uint64_t Begin(const char* name, uint64_t parent, uint64_t session);
  void End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Records one span over its lifetime; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
             uint64_t session)
      : log_(log), id_(log ? log->Begin(name, parent, session) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint64_t id_;
};

/// Span durations in milliseconds, grouped by name.
std::map<std::string, std::vector<double>> DurationsMs(
    const std::vector<SpanLog>& logs);

/// Writes the spans as tab-separated lines (name, id, parent, session,
/// start_ns, end_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs);

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
