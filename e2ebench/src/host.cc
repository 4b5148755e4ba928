#include "host.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "linalg/simd.h"

namespace e2e {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

double StreamTriadGBps(size_t threads) {
  constexpr size_t kElems = size_t{1} << 24;
  threads = std::max<size_t>(1, threads);
  std::unique_ptr<double[]> a(new double[kElems]);
  std::unique_ptr<double[]> b(new double[kElems]);
  std::unique_ptr<double[]> c(new double[kElems]);
  auto parallel = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        body(kElems * t / threads, kElems * (t + 1) / threads);
      });
    }
    for (std::thread& th : pool) th.join();
  };
  // First touch from the threads that stream the slice later.
  parallel([&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    auto start = std::chrono::steady_clock::now();
    parallel([&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    best = std::max(best, 24.0 * static_cast<double>(kElems) / secs / 1e9);
  }
  // Keep the result observable so the passes cannot be dropped.
  if (a[kElems / 2] != 7.0) return 0.0;
  return best;
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  double field = 0.0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

HostRecord CollectHost(const std::string& git_sha, double triad_gb_per_s,
                       double steal_share) {
  HostRecord h;
  h.cpu_model = CpuModel();
  h.cores = std::thread::hardware_concurrency();
  h.fp32_kernel = seesaw::linalg::ActiveKernels().name;
  h.int8_kernel = seesaw::linalg::ActiveInt8Kernels().name;
  h.compiler = E2E_COMPILER;
  h.build_type = E2E_BUILD_TYPE;
  h.git_sha = git_sha;
  h.triad_gb_per_s = triad_gb_per_s;
  h.steal_share = steal_share;
  return h;
}

std::string HostJson(const HostRecord& h) {
  std::ostringstream out;
  out << "{\"cpu_model\": \"" << JsonEscape(h.cpu_model)
      << "\", \"cores\": " << h.cores << ", \"fp32_kernel\": \""
      << JsonEscape(h.fp32_kernel) << "\", \"int8_kernel\": \""
      << JsonEscape(h.int8_kernel) << "\", \"compiler\": \""
      << JsonEscape(h.compiler) << "\", \"build_type\": \""
      << JsonEscape(h.build_type) << "\", \"git_sha\": \""
      << JsonEscape(h.git_sha) << "\", \"triad_gb_per_s\": "
      << h.triad_gb_per_s << ", \"steal_share\": " << h.steal_share << "}";
  return out.str();
}

namespace {

// A "<key>: <n> kB" line of /proc/self/status, in MiB; 0 if absent.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() { return StatusMb("VmHWM"); }

double RssMb() { return StatusMb("VmRSS"); }

RssSampler::RssSampler() {
  max_mb_ = RssMb();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const double mb = RssMb();
      if (mb > max_mb_.load()) max_mb_ = mb;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

double RssSampler::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  const double mb = RssMb();
  if (mb > max_mb_.load()) max_mb_ = mb;
  return max_mb_.load();
}

}  // namespace e2e
