#include "trace.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace e2e {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

uint64_t SpanLog::Begin(const char* name, uint64_t parent, uint64_t session) {
  Span span;
  span.name = name;
  span.id = (static_cast<uint64_t>(thread_) + 1) << 40 | spans_.size();
  span.parent = parent;
  span.session = session;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void SpanLog::End(uint64_t id) {
  spans_[id & ((uint64_t{1} << 40) - 1)].end_ns = NowNs();
}

std::map<std::string, std::vector<double>> DurationsMs(
    const std::vector<SpanLog>& logs) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "name\tid\tparent\tsession\tstart_ns\tend_ns\n");
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(f.get(), "%s\t%llu\t%llu\t%llu\t%lld\t%lld\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.session),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fflush(f.get()) == 0;
}

}  // namespace e2e
