// Host record printed with every run, and the process-level probes the
// end-to-end metrics need (peak resident memory, STREAM-triad bandwidth).
#ifndef E2EBENCH_HOST_H_
#define E2EBENCH_HOST_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>

namespace e2e {

struct HostRecord {
  std::string cpu_model;
  size_t cores = 0;
  std::string fp32_kernel;  // dispatched scoring kernels
  std::string int8_kernel;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
  double triad_gb_per_s = 0.0;
  /// Share of all CPU time the hypervisor took from this machine while the
  /// run measured (steal over total in /proc/stat; 0 on bare metal). Runs
  /// taken while other tenants steal much are slower across the board.
  double steal_share = 0.0;
};

/// The machine's cumulative CPU time (first line of /proc/stat), in ticks.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;
};

CpuTimes ReadCpuTimes();

/// Steal over total CPU time between two readings; 0 when unknown.
double StealShare(const CpuTimes& before, const CpuTimes& after);

/// STREAM triad a[i] = b[i] + s * c[i] over three arrays of 2^24 doubles
/// (384 MiB in all), split over `threads` threads; best of five passes, in
/// GB/s counting 24 bytes per element.
double StreamTriadGBps(size_t threads);

HostRecord CollectHost(const std::string& git_sha, double triad_gb_per_s,
                       double steal_share);

/// One-line JSON object of the record.
std::string HostJson(const HostRecord& host);

/// CPU time consumed so far by this process (all threads) and by the
/// calling thread, in seconds.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Peak resident set of this process so far (VmHWM), in MiB; 0 if unknown.
double PeakRssMb();

/// Resident set of this process now (VmRSS), in MiB; 0 if unknown.
double RssMb();

/// Samples RssMb() every 20 milliseconds on a thread of its own from
/// construction until Stop(), and keeps the largest reading.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling (idempotent) and returns the largest reading.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<double> max_mb_{0.0};
  std::thread thread_;
};

}  // namespace e2e

#endif  // E2EBENCH_HOST_H_
