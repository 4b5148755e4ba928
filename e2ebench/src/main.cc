// e2ebench: the end-to-end serving benchmark of SeeSaw.
//
// One run serves one named workload: it generates an LVIS-like dataset
// from --seed, preprocesses it with core::SeeSawService, starts a
// net::SeeSawServer over the service's SessionManager on loopback, and
// drives whole search sessions over net::SeeSawClient from a few client
// threads (a closed loop: each client waits for its reply). A session is the
// paper's task (§5.1): CreateSessionFromVector with the concept's text
// query, then rounds of NextBatch(10) -> one AddFeedback per inspected image
// with ground-truth relevance and boxes -> Refit, until 10 positives are
// found or 60 images inspected, then CloseSession.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace_dir <dir>] [--git_sha <sha>]
//
// --trace 0 prints the end-to-end metrics, every timing taken on the client
// from call to reply. --trace 1 replays the workload's session script over
// the wire and in process with spans around the calls into each layer and
// prints the per-layer metrics (README.md lists which end-to-end metric each
// should move). Both check the program's outputs against the benchmark's own
// brute-force reference (reference.h). The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/service.h"
#include "core/session_manager.h"
#include "data/profiles.h"
#include "host.h"
#include "linalg/quantize.h"
#include "linalg/simd.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "reference.h"
#include "store/exact_store.h"
#include "trace.h"

namespace e2e {
namespace {

namespace core = seesaw::core;
namespace data = seesaw::data;
namespace linalg = seesaw::linalg;
namespace net = seesaw::net;
namespace store = seesaw::store;

using Clock = std::chrono::steady_clock;

// The paper's task (§5.1): find 10 positives within 60 inspected images,
// shown 10 per round.
constexpr size_t kBatch = 10;
constexpr size_t kTargetPositives = 10;
constexpr size_t kMaxInspected = 60;
// Concepts with fewer positives are not queried (LvisLikeProfile plants at
// least this many per concept, so every concept qualifies).
constexpr size_t kMinPositives = 5;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupReps = 3;
// A timed phase runs at least this many rounds, so every p99 it reports has
// at least ten samples beyond it.
constexpr size_t kMinRounds = 1000;
// Depth of the brute-force reference ranking (>= kMaxInspected).
constexpr size_t kRefDepth = 64;
// Sessions replayed by the traced run.
constexpr size_t kTraceSessions = 96;
// Threads of the benchmark's own brute-force reference.
constexpr size_t kReferenceThreads = 4;

struct Workload {
  const char* name;
  double lvis_scale;  // data::LvisLikeProfile scale
  size_t dim;
  store::ScanPrecision precision;
  size_t md_sample;  // graph::MdOptions::sample_size
  size_t clients;
};

// LVIS-like tables. Scale 15.5 tiles into ~1.02M patch vectors; scale 0.5
// into ~33k.
constexpr Workload kWorkloads[] = {
    {"interactive-1m", 15.5, 128, store::ScanPrecision::kInt8, 4000, 4},
    {"refit-512d", 0.5, 512, store::ScanPrecision::kFloat32, 4000, 4},
};

const char* PrecisionName(store::ScanPrecision p) {
  return p == store::ScanPrecision::kInt8 ? "int8" : "fp32";
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::exit(1);
}

// ------------------------------------------------------------------ flags --

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/e2ebench/traces";
  std::string git_sha = "unknown";
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    if (i + 1 >= argc) Die("flag " + name + " needs a value");
    std::string value = argv[++i];
    char* end = nullptr;
    if (name == "--workload") {
      f.workload = value;
    } else if (name == "--seed") {
      f.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Die("bad --seed " + value);
    } else if (name == "--seconds") {
      f.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(f.seconds > 0)) Die("bad --seconds " + value);
    } else if (name == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      f.trace = value == "1";
    } else if (name == "--trace_dir") {
      f.trace_dir = value;
    } else if (name == "--git_sha") {
      f.git_sha = value;
    } else {
      Die("unknown flag " + name);
    }
  }
  if (f.workload.empty()) Die("--workload is required");
  return f;
}

// ------------------------------------------------------------- statistics --

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Nearest-rank percentile: the smallest sample with at least p of the
// samples at or below it. Samples strictly beyond it: n - ceil(p * n).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

size_t BeyondP99(size_t n) {
  return n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ------------------------------------------------------------- deployment --

struct SetupTimes {
  double generate = 0, embed = 0, index = 0, md = 0, serve_start = 0,
         total = 0;
};

// A served dataset. Members are destroyed server first, dataset last.
struct Deployment {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<core::SeeSawService> service;
  std::unique_ptr<net::SeeSawServer> server;
  SetupTimes times;

  core::SessionManager& manager() { return service->sessions(); }
  const core::EmbeddedDataset& embedded() const {
    return service->embedded();
  }
};

// Dataset generation, preprocessing and server start, timed until the
// server has answered a Ping.
std::unique_ptr<Deployment> Deploy(const Workload& w, uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  const auto start = Clock::now();
  data::DatasetProfile profile = data::LvisLikeProfile(w.lvis_scale);
  profile.embedding_dim = w.dim;
  profile.seed = seed;
  auto phase = Clock::now();
  auto dataset = data::Dataset::Generate(profile);
  if (!dataset.ok()) Die("dataset: " + dataset.status().ToString());
  d->dataset = std::make_unique<data::Dataset>(std::move(*dataset));
  d->times.generate = MsSince(phase) / 1e3;

  // The served configuration of tools/seesaw_server.cc (one in-flight
  // request per session, M_D over a 5-NN graph), plus the scan precision
  // and M_D sample the workload sets.
  core::ServiceOptions options;
  options.preprocess.exact.precision = w.precision;
  options.preprocess.md.k = 5;
  options.preprocess.md.sample_size = w.md_sample;
  options.session_limits.max_inflight_per_session = 1;
  auto service = core::SeeSawService::Create(*d->dataset, options);
  if (!service.ok()) Die("service: " + service.status().ToString());
  d->service = std::make_unique<core::SeeSawService>(std::move(*service));
  const core::PreprocessStats& stats = d->embedded().stats();
  d->times.embed = stats.embed_seconds;
  d->times.index = stats.index_seconds;
  d->times.md = stats.md_seconds;

  phase = Clock::now();
  d->server = std::make_unique<net::SeeSawServer>(d->manager(),
                                                  net::ServerOptions{});
  seesaw::Status started = d->server->Start();
  if (!started.ok()) Die("server: " + started.ToString());
  auto client = net::SeeSawClient::Connect("127.0.0.1", d->server->port());
  if (!client.ok()) Die("connect: " + client.status().ToString());
  seesaw::Status ping = client->Ping();
  if (!ping.ok()) Die("ping: " + ping.ToString());
  d->times.serve_start = MsSince(phase) / 1e3;
  d->times.total = MsSince(start) / 1e3;
  return d;
}

// Sets up kSetupReps times and keeps the last deployment; the others are
// torn down before the next starts, so only one table is resident at once.
std::unique_ptr<Deployment> DeployRepeatedly(const Workload& w, uint64_t seed,
                                             std::vector<SetupTimes>* times) {
  std::unique_ptr<Deployment> d;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    d = Deploy(w, seed);
    times->push_back(d->times);
  }
  return d;
}

// ----------------------------------------------------------------- script --

// Session i of a run queries concepts[i % size]; the order is a seeded
// permutation of every evaluable concept, so the first size() sessions (the
// fixed set mean_ap is taken over) query each concept once.
std::vector<size_t> SessionConcepts(const data::Dataset& dataset,
                                    uint64_t seed) {
  std::vector<size_t> concepts = dataset.EvaluableConcepts(kMinPositives);
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t i = concepts.size(); i > 1; --i) {
    std::swap(concepts[i - 1], concepts[rng() % i]);
  }
  return concepts;
}

// One simulated user working through the task on one concept.
class UserTask {
 public:
  UserTask(const data::Dataset& dataset, size_t concept_id)
      : dataset_(dataset),
        concept_(concept_id),
        seen_(dataset.num_images(), 0) {}

  bool done() const {
    return found_ >= kTargetPositives || relevance_.size() >= kMaxInspected;
  }

  core::ImageFeedback Label(uint32_t image) {
    core::ImageFeedback fb;
    fb.image_idx = image;
    fb.relevant = dataset_.IsPositive(image, concept_);
    if (fb.relevant) fb.boxes = dataset_.ConceptBoxes(image, concept_);
    seen_[image] = 1;
    relevance_.push_back(fb.relevant ? 1 : 0);
    found_ += fb.relevant ? 1 : 0;
    return fb;
  }

  const std::vector<char>& seen() const { return seen_; }
  const std::vector<char>& relevance() const { return relevance_; }

 private:
  const data::Dataset& dataset_;
  size_t concept_;
  std::vector<char> seen_;
  std::vector<char> relevance_;
  size_t found_ = 0;
};

// What one session showed and was told.
struct SessionOutcome {
  bool complete = false;  // every call succeeded
  std::vector<std::vector<core::ScoredImage>> batches;
  std::vector<size_t> labelled;  // images labelled per round
  std::vector<char> relevance;
};

bool SameBatch(const std::vector<core::ScoredImage>& a,
               const std::vector<core::ScoredImage>& b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].image_idx != b[k].image_idx ||
        std::memcmp(&a[k].score, &b[k].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameOutcome(const SessionOutcome& a, const SessionOutcome& b) {
  if (a.batches.size() != b.batches.size() || a.relevance != b.relevance) {
    return false;
  }
  for (size_t r = 0; r < a.batches.size(); ++r) {
    if (!SameBatch(a.batches[r], b.batches[r])) return false;
  }
  return true;
}

// ---------------------------------------------------------------- clients --

enum Kind { kCreate = 0, kNext, kFeedback, kRefit, kRound, kNumKinds };

struct Samples {
  std::vector<double> ms[kNumKinds];
  void Append(const Samples& o) {
    for (int k = 0; k < kNumKinds; ++k) {
      ms[k].insert(ms[k].end(), o.ms[k].begin(), o.ms[k].end());
    }
  }
};

// Everything one client thread owns.
struct Client {
  explicit Client(uint32_t index) : log(index) {}
  std::unique_ptr<net::SeeSawClient> wire;
  size_t attempted = 0;
  size_t failed = 0;
  Samples samples;
  std::vector<std::string> violations;
  double cpu_s = 0;  // the client thread's own CPU time, over all phases
  // Sessions beyond the fixed set, for the determinism check.
  std::vector<std::pair<size_t, SessionOutcome>> repeats;
  SpanLog log;
};

struct Shared {
  Deployment& deployment;
  const std::vector<size_t>& concepts;
  std::atomic<size_t> live_max{0};

  size_t Concept(size_t session) const {
    return concepts[session % concepts.size()];
  }
  void NoteLive() {
    size_t live = deployment.manager().num_sessions();
    size_t seen = live_max.load();
    while (live > seen && !live_max.compare_exchange_weak(seen, live)) {
    }
  }
};

// Times one call; on failure counts it and returns false.
template <typename Call>
bool Timed(Client& c, Call&& call, double* ms) {
  ++c.attempted;
  const auto start = Clock::now();
  seesaw::Status s = call();
  *ms = MsSince(start);
  if (!s.ok()) {
    ++c.failed;
    return false;
  }
  return true;
}

void Violation(Client& c, size_t session, const std::string& what) {
  c.violations.push_back("session " + std::to_string(session) + ": " + what);
}

// One whole session over the wire. Samples are kept when `samples` is
// non-null, spans when `log` is; `rounds` counts completed rounds.
SessionOutcome RunWireSession(Client& c, Shared& sh, size_t index,
                              Samples* samples, SpanLog* log,
                              std::atomic<size_t>* rounds) {
  SessionOutcome out;
  const size_t concept_id = sh.Concept(index);
  ScopedSpan session_span(log, "wire.session", 0, index);
  net::SeeSawClient& wire = *c.wire;
  uint64_t sid = 0;
  double ms = 0;
  {
    ScopedSpan span(log, "wire.create", session_span.id(), index);
    if (!Timed(c, [&] {
          auto r = wire.CreateSessionFromVector(
              sh.deployment.embedded().TextQuery(concept_id));
          if (r.ok()) sid = *r;
          return r.status();
        }, &ms)) {
      return out;
    }
  }
  if (samples) samples->ms[kCreate].push_back(ms);
  if (log) sh.NoteLive();
  UserTask task(*sh.deployment.dataset, concept_id);
  bool ok = true;
  while (ok && !task.done()) {
    ScopedSpan round_span(log, "wire.round", session_span.id(), index);
    double round_ms = 0;
    std::vector<core::ScoredImage> batch;
    {
      ScopedSpan span(log, "wire.nextbatch", round_span.id(), index);
      ok = Timed(c, [&] {
        auto r = wire.NextBatch(sid, kBatch);
        if (r.ok()) batch = std::move(*r);
        return r.status();
      }, &ms);
    }
    if (!ok) break;
    round_ms += ms;
    if (samples) samples->ms[kNext].push_back(ms);
    std::string bad = CheckReply(batch, kBatch, task.seen());
    if (!bad.empty() || batch.empty()) {
      Violation(c, index, bad.empty() ? "empty batch" : bad);
      break;
    }
    out.batches.push_back(batch);
    size_t labelled = 0;
    for (size_t k = 0; k < batch.size() && !task.done(); ++k) {
      core::ImageFeedback fb = task.Label(batch[k].image_idx);
      ++labelled;
      {
        ScopedSpan span(log, "wire.feedback", round_span.id(), index);
        ok = Timed(c, [&] { return wire.AddFeedback(sid, fb); }, &ms);
      }
      if (!ok) break;
      round_ms += ms;
      if (samples) samples->ms[kFeedback].push_back(ms);
    }
    out.labelled.push_back(labelled);
    if (!ok) break;
    {
      ScopedSpan span(log, "wire.refit", round_span.id(), index);
      ok = Timed(c, [&] { return wire.Refit(sid); }, &ms);
    }
    if (!ok) break;
    round_ms += ms;
    if (samples) {
      samples->ms[kRefit].push_back(ms);
      samples->ms[kRound].push_back(round_ms);
    }
    if (rounds) rounds->fetch_add(1);
  }
  {
    ScopedSpan span(log, "wire.close", session_span.id(), index);
    ok = Timed(c, [&] { return wire.CloseSession(sid); }, &ms) && ok;
  }
  out.relevance = task.relevance();
  out.complete = ok;
  return out;
}

// Runs `body(client, session)` on one thread per client. Each thread takes
// the next session index below `limit` while `keep_going()` holds, and adds
// its CPU time to its client's cpu_s.
template <typename KeepGoing, typename Body>
void RunClients(std::vector<Client>& clients, std::atomic<size_t>& next,
                size_t limit, KeepGoing keep_going, Body body) {
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&] {
      const double cpu_start = ThreadCpuSeconds();
      while (keep_going()) {
        // Never take an index at or past `limit`: the next phase starts there.
        size_t i = next.load();
        do {
          if (i >= limit) break;
        } while (!next.compare_exchange_weak(i, i + 1));
        if (i >= limit) break;
        body(c, i);
      }
      c.cpu_s += ThreadCpuSeconds() - cpu_start;
    });
  }
  for (std::thread& t : threads) t.join();
}

void ConnectAll(std::vector<Client>& clients, Deployment& d) {
  for (Client& c : clients) {
    auto wire = net::SeeSawClient::Connect("127.0.0.1", d.server->port());
    if (!wire.ok()) Die("connect: " + wire.status().ToString());
    c.wire = std::make_unique<net::SeeSawClient>(std::move(*wire));
  }
}

// --------------------------------------------------------- output checks --

struct CheckSummary {
  std::vector<std::string> failures;
  size_t first_batches = 0;
  // Against the double-precision ranking, also for int8 scans.
  size_t first_identical = 0;  // same images in the same order
  size_t recalled = 0;         // first-batch images in the exact top-n
  size_t recall_slots = 0;
  std::vector<double> tolerances;  // the error bound each check allowed
  double mean_ap = 0.0;
  double zero_shot_ap = 0.0;
};

// Checks the fixed set of sessions (one per concept) against the reference:
// first batches, and SeeSaw's mean AP against the zero-shot mean AP.
CheckSummary CheckFixedSet(const Deployment& d, const Workload& w,
                           const std::vector<size_t>& concepts,
                           const std::vector<Reference>& refs,
                           const std::vector<SessionOutcome>& outcomes) {
  CheckSummary sum;
  std::vector<double> aps, zero_shot;
  for (size_t i = 0; i < concepts.size(); ++i) {
    const SessionOutcome& o = outcomes[i];
    const size_t relevant = d.dataset->positives(concepts[i]).size();
    if (!o.complete || o.batches.empty()) {
      sum.failures.push_back("fixed-set session " + std::to_string(i) +
                             " did not complete");
      continue;
    }
    aps.push_back(TaskAp(o.relevance, relevant, kTargetPositives));
    zero_shot.push_back(TaskAp(
        ZeroShotRelevance(refs[i], *d.dataset, kTargetPositives, kMaxInspected),
        relevant, kTargetPositives));
    const auto& first = o.batches.front();
    ++sum.first_batches;
    // int8 scores are reproduced exactly; fp32 ones within their rounding
    // bound of the double-precision ranking.
    const bool int8 = w.precision == store::ScanPrecision::kInt8;
    const double tolerance = int8 ? 0.0 : refs[i].fp32_tolerance;
    std::string bad = CheckFirstBatch(
        first, int8 ? refs[i].int8_top : refs[i].top, kBatch, tolerance);
    if (!bad.empty()) {
      sum.failures.push_back("session " + std::to_string(i) + ": " + bad);
    }
    sum.tolerances.push_back(tolerance);
    bool identical = first.size() == std::min(kBatch, refs[i].top.size());
    for (size_t k = 0; identical && k < first.size(); ++k) {
      identical = first[k].image_idx == refs[i].top[k].image;
    }
    sum.first_identical += identical;
    sum.recalled += CountRecalled(first, refs[i], kBatch);
    sum.recall_slots += std::min(kBatch, refs[i].top.size());
  }
  sum.mean_ap = Mean(aps);
  sum.zero_shot_ap = Mean(zero_shot);
  if (!(sum.mean_ap >= sum.zero_shot_ap)) {
    sum.failures.push_back("SeeSaw mean AP " + std::to_string(sum.mean_ap) +
                           " below zero-shot " +
                           std::to_string(sum.zero_shot_ap));
  }
  return sum;
}

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << FormatDouble(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

void PrintFailures(const std::vector<std::string>& failures) {
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("CHECK FAILED: %s\n", failures[i].c_str());
  }
  if (failures.size() > 20) {
    std::printf("CHECK FAILED: ... %zu more\n", failures.size() - 20);
  }
}

void PrintWorkload(const Workload& w, const Deployment& d, uint64_t seed,
                   size_t concepts) {
  std::printf(
      "workload %s seed=%llu: LVIS-like scale %.2f, %zu images, %zu vectors x "
      "%zud, %s scan, M_D sample %zu, %zu concepts, %zu clients\n",
      w.name, static_cast<unsigned long long>(seed), w.lvis_scale,
      d.dataset->num_images(), d.embedded().num_vectors(), w.dim,
      PrecisionName(w.precision), w.md_sample, concepts, w.clients);
}

void PrintChecks(const Workload& w, const CheckSummary& c) {
  std::printf(
      "check: %zu first batches vs the %s reference ranking within %.3g "
      "(median bound); against the double-precision ranking %zu identical, "
      "image recall@%zu %.4f (%zu/%zu)\n",
      c.first_batches, PrecisionName(w.precision), Median(c.tolerances),
      c.first_identical, kBatch,
      c.recall_slots ? static_cast<double>(c.recalled) /
                           static_cast<double>(c.recall_slots)
                     : 0.0,
      c.recalled, c.recall_slots);
  std::printf("check: mean AP seesaw %.4f vs zero-shot %.4f\n", c.mean_ap,
              c.zero_shot_ap);
}

// -------------------------------------------------------- untraced run ----

int RunUntraced(const Flags& flags, const Workload& w,
                std::vector<std::string> failures) {
  const auto run_start = Clock::now();
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d = DeployRepeatedly(w, flags.seed, &setups);
  const std::vector<size_t> concepts = SessionConcepts(*d->dataset, flags.seed);
  if (concepts.empty()) Die("no evaluable concepts");
  PrintWorkload(w, *d, flags.seed, concepts.size());
  const double setup_wall_s = MsSince(run_start) / 1e3;
  // peak_rss_mb is the serving side's: the high-water mark of the set-ups,
  // then the largest resident set sampled while serving. The benchmark's
  // own reference runs in between and is in neither.
  const double setup_rss = PeakRssMb();

  // The benchmark's own reference: not part of set-up.
  auto phase = Clock::now();
  std::vector<Reference> refs =
      BruteForceRankings(d->embedded(), concepts, kRefDepth, kReferenceThreads,
                         w.precision == store::ScanPrecision::kInt8);
  // Hand the reference's freed buffers back to the system, so the
  // allocator's free lists do not keep them resident while serving (this
  // returns what the program had freed too; its own peak is in setup_rss).
  malloc_trim(0);
  const double reference_s = MsSince(phase) / 1e3;
  const double reference_rss = PeakRssMb();
  RssSampler serving_rss;

  Shared sh{*d, concepts};
  std::vector<Client> clients;
  for (size_t t = 0; t < w.clients; ++t) clients.emplace_back(t);
  ConnectAll(clients, *d);
  std::vector<SessionOutcome> fixed(concepts.size());
  std::atomic<size_t> next{0}, rounds{0};

  auto record = [&](Client& c, size_t i, SessionOutcome o) {
    if (i < concepts.size()) {
      fixed[i] = std::move(o);
    } else {
      c.repeats.emplace_back(i, std::move(o));
    }
  };
  // Warm-up, untimed: one session per client, so lazily built state (pool
  // workers, scan scratch, caches over the tables) is in place before timing.
  RunClients(clients, next, clients.size(), [] { return true; },
             [&](Client& c, size_t i) {
               record(c, i, RunWireSession(c, sh, i, nullptr, nullptr,
                                           nullptr));
             });
  // Timed phase: at least --seconds and kMinRounds rounds; clients finish
  // the session they are in. The serving side's CPU time is the process's
  // less the client threads'.
  const CpuTimes cpu_before = ReadCpuTimes();
  double client_cpu_before = 0;
  for (const Client& c : clients) client_cpu_before += c.cpu_s;
  const double process_cpu_before = ProcessCpuSeconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(flags.seconds));
  RunClients(
      clients, next, std::numeric_limits<size_t>::max(),
      [&] { return Clock::now() < deadline || rounds.load() < kMinRounds; },
      [&](Client& c, size_t i) {
        record(c, i,
               RunWireSession(c, sh, i, &c.samples, nullptr, &rounds));
      });
  const double timed_s = MsSince(start) / 1e3;
  const double process_cpu_s = ProcessCpuSeconds() - process_cpu_before;
  const double steal = StealShare(cpu_before, ReadCpuTimes());
  const size_t timed_rounds = rounds.load();
  double client_cpu_s = -client_cpu_before;
  for (const Client& c : clients) client_cpu_s += c.cpu_s;
  const double serving_cpu_s = process_cpu_s - client_cpu_s;
  const double serving_rss_mb = serving_rss.Stop();
  phase = Clock::now();
  // Untimed completion of the fixed set, so mean_ap does not depend on how
  // many sessions the timed phase reached.
  RunClients(clients, next, concepts.size(), [] { return true; },
             [&](Client& c, size_t i) {
               record(c, i, RunWireSession(c, sh, i, nullptr, nullptr,
                                           nullptr));
             });

  const double completion_s = MsSince(phase) / 1e3;
  Samples samples;
  size_t attempted = 0, failed = 0;
  for (Client& c : clients) {
    samples.Append(c.samples);
    attempted += c.attempted;
    failed += c.failed;
    failures.insert(failures.end(), c.violations.begin(), c.violations.end());
    for (const auto& [i, o] : c.repeats) {
      if (o.complete && fixed[i % concepts.size()].complete &&
          !SameOutcome(o, fixed[i % concepts.size()])) {
        failures.push_back("session " + std::to_string(i) +
                           " diverged from session " +
                           std::to_string(i % concepts.size()) +
                           " on the same concept");
      }
    }
  }
  const double peak_rss = std::max(setup_rss, serving_rss_mb);
  CheckSummary checks = CheckFixedSet(*d, w, concepts, refs, fixed);
  failures.insert(failures.end(), checks.failures.begin(),
                  checks.failures.end());
  phase = Clock::now();
  d.reset();
  const double teardown_s = MsSince(phase) / 1e3;
  phase = Clock::now();
  const double triad = StreamTriadGBps(std::thread::hardware_concurrency());
  const double triad_s = MsSince(phase) / 1e3;

  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total);
  // The metrics of record. Besides set-up, memory and search quality, the
  // serving cost is CPU time per round: it holds still while the host's
  // CPU steal moves the wall-clock figures below by a third (README.md).
  const double cpu_ms_per_round =
      timed_rounds ? serving_cpu_s * 1e3 / static_cast<double>(timed_rounds)
                   : 0.0;
  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"cpu_ms_per_round", cpu_ms_per_round, "ms"},
      {"mean_ap", checks.mean_ap, "AP"},
  };
  // What a user waits for, timed on the client; printed with every run.
  const std::vector<Metric> wall = {
      {"rounds_per_s", static_cast<double>(timed_rounds) / timed_s, "1/s"},
      {"round_p50_ms", Median(samples.ms[kRound]), "ms"},
      {"round_p99_ms", Percentile(samples.ms[kRound], 0.99), "ms"},
      {"nextbatch_p50_ms", Median(samples.ms[kNext]), "ms"},
      {"nextbatch_p99_ms", Percentile(samples.ms[kNext], 0.99), "ms"},
      {"refit_p50_ms", Median(samples.ms[kRefit]), "ms"},
      {"refit_p99_ms", Percentile(samples.ms[kRefit], 0.99), "ms"},
      {"feedback_p50_ms", Median(samples.ms[kFeedback]), "ms"},
      {"create_p50_ms", Median(samples.ms[kCreate]), "ms"},
  };
  std::printf("host %s\n",
              HostJson(CollectHost(flags.git_sha, triad, steal)).c_str());
  std::printf("timed phase: %.2f s, %zu rounds, %zu clients; CPU %.2f s "
              "serving + %.2f s clients (%.2f of %u cores)\n",
              timed_s, timed_rounds, w.clients, serving_cpu_s, client_cpu_s,
              process_cpu_s / timed_s, std::thread::hardware_concurrency());
  std::printf("wall: set-ups %.2f s, reference %.2f s, timed %.2f s, "
              "completion %.2f s, teardown %.2f s, triad %.2f s\n",
              setup_wall_s, reference_s, timed_s, completion_s, teardown_s,
              triad_s);
  std::printf("rss: set-up high-water %.1f MB, serving max %.1f MB; "
              "high-water with the reference %.1f MB\n",
              setup_rss, serving_rss_mb, reference_rss);
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  PrintChecks(w, checks);
  const Kind kinds[] = {kRound, kNext, kRefit, kFeedback, kCreate};
  const char* kind_names[] = {"round", "nextbatch", "refit", "feedback",
                              "create"};
  for (size_t k = 0; k < 5; ++k) {
    size_t n = samples.ms[kinds[k]].size();
    std::printf("samples %-9s n=%zu (beyond p99: %zu)\n", kind_names[k], n,
                BeyondP99(n));
    if ((kinds[k] == kRound || kinds[k] == kNext || kinds[k] == kRefit) &&
        BeyondP99(n) < 10) {
      failures.push_back(std::string("too few ") + kind_names[k] +
                         " samples for a p99");
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%-18s %.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : wall) {
    std::printf("%-18s %.4f %s (wall clock)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintFailures(failures);
  PrintResult(failures.empty(), attempted, failed, metrics);
  return 0;
}

// ---------------------------------------------------------- traced run ----

// Re-issues the scan layers at the state a NextBatch is about to see.
class LayerProbe {
 public:
  explicit LayerProbe(const Deployment& d)
      : embedded_(d.embedded()),
        exact_(dynamic_cast<const store::ExactStore*>(&d.embedded().store())) {
    const double avg_patches =
        static_cast<double>(embedded_.num_vectors()) /
        static_cast<double>(std::max<size_t>(1, embedded_.num_images()));
    // The first-round k of SearcherBase::ComputeTopImages.
    first_k_ = std::min(
        embedded_.num_vectors(),
        static_cast<size_t>(std::max<double>(
            16.0, (static_cast<double>(kBatch) + 4) * avg_patches * 2)));
  }

  bool int8() const {
    return exact_ != nullptr &&
           exact_->options().precision == store::ScanPrecision::kInt8;
  }

  // Bytes one full scan streams from the scan table.
  double ScanBytes() const {
    const double rows = static_cast<double>(embedded_.num_vectors());
    const double dim = static_cast<double>(embedded_.dim());
    return int8() ? rows * dim + rows * sizeof(float)
                  : rows * dim * sizeof(float);
  }

  // Bytes of the store's scan tables: its fp32 table plus the int8 copy.
  double TableBytes() const {
    if (exact_ == nullptr) return 0.0;
    const auto& q = exact_->quantized();
    return static_cast<double>(exact_->vectors().rows() *
                                   exact_->vectors().cols() * sizeof(float) +
                               q.data.size() + q.scales.size() * sizeof(float));
  }

  store::SeenSet SeenPatches(const std::vector<char>& seen_images) const {
    store::SeenSet seen(embedded_.num_vectors());
    for (size_t img = 0; img < seen_images.size(); ++img) {
      if (!seen_images[img]) continue;
      auto [begin, end] = embedded_.ImagePatchRange(static_cast<uint32_t>(img));
      for (uint32_t v = begin; v < end; ++v) seen.Set(v);
    }
    return seen;
  }

  void Scan(linalg::VecSpan query, const store::SeenSet& seen,
            seesaw::ThreadPool* pool) const {
    linalg::VecSpan queries[] = {query};
    auto hits = embedded_.store().TopKBatch(
        std::span<const linalg::VecSpan>(queries, 1), first_k_, seen, pool);
    sink_ += hits.front().empty() ? 0.0f : hits.front().front().score;
  }

  // The dispatched scoring kernel over the whole table, no selection.
  void Kernel(linalg::VecSpan query, std::vector<float>* out) const {
    const size_t rows = embedded_.num_vectors();
    const size_t dim = embedded_.dim();
    out->resize(rows);
    if (int8()) {
      const linalg::QuantizedTable& table = exact_->quantized();
      linalg::QuantizedVector q = linalg::QuantizeQuery(query);
      linalg::ActiveInt8Kernels().score_block(
          table.data.data(), table.scales.data(), rows, dim, q.data.data(),
          &q.scale, 1, out->data());
    } else {
      const linalg::MatrixF& table =
          exact_ != nullptr ? exact_->vectors() : embedded_.vectors();
      linalg::ActiveKernels().score_block(table.Row(0).data(), rows, dim,
                                          &query, 1, out->data());
    }
    sink_ += (*out)[rows / 2];
  }

 private:
  const core::EmbeddedDataset& embedded_;
  const store::ExactStore* exact_;
  size_t first_k_ = 0;
  // Keeps the probes' results observable.
  mutable std::atomic<float> sink_{0.0f};
};

// Per-thread tallies of the in-process replay.
struct InProcessTally {
  std::vector<double> examples, iterations, function_evals;
  size_t nextbatches = 0, prefetch_hits = 0, refit_matches = 0;
  std::vector<float> kernel_out;
};

// One session through SessionManager/SeeSawSearcher, with the layer probes
// re-issued around the calls; decisions must equal the wire replay's.
void RunInProcessSession(Client& c, Shared& sh, const LayerProbe& probe,
                         size_t index, const SessionOutcome& wire,
                         InProcessTally& tally) {
  SpanLog* log = &c.log;
  core::SessionManager& manager = sh.deployment.manager();
  const size_t concept_id = sh.Concept(index);
  ScopedSpan session_span(log, "inproc.session", 0, index);
  ++c.attempted;
  seesaw::StatusOr<core::SessionId> id = [&] {
    ScopedSpan span(log, "core.session.create", session_span.id(), index);
    return manager.CreateSession(sh.deployment.embedded().TextQuery(concept_id));
  }();
  if (!id.ok()) {
    ++c.failed;
    return;
  }
  sh.NoteLive();
  auto acquire = [&](uint64_t parent) {
    ++c.attempted;
    ScopedSpan span(log, "core.session.acquire", parent, index);
    seesaw::StatusOr<core::SessionLease> lease = manager.Acquire(*id);
    if (!lease.ok()) {
      ++c.failed;
      return core::SessionLease();
    }
    return std::move(*lease);
  };
  UserTask task(*sh.deployment.dataset, concept_id);
  size_t round = 0;
  bool ok = true;
  while (ok && !task.done()) {
    ScopedSpan round_span(log, "inproc.round", session_span.id(), index);
    core::SessionLease lease = acquire(round_span.id());
    if (!(ok = lease.valid())) break;
    {
      const linalg::VectorF query = lease->current_query();
      const store::SeenSet seen = probe.SeenPatches(task.seen());
      {
        ScopedSpan span(log, "store.scan", round_span.id(), index);
        probe.Scan(query, seen, &manager.pool());
      }
      {
        ScopedSpan span(log, "store.scan_serial", round_span.id(), index);
        probe.Scan(query, seen, nullptr);
      }
      {
        ScopedSpan span(log, "linalg.kernel", round_span.id(), index);
        probe.Kernel(query, &tally.kernel_out);
      }
    }
    std::vector<core::ScoredImage> batch;
    ++c.attempted;
    {
      ScopedSpan span(log, "core.searcher.nextbatch", round_span.id(), index);
      batch = lease->NextBatch(kBatch);
    }
    lease.Reset();
    ++tally.nextbatches;
    if (round >= wire.batches.size() || !SameBatch(batch, wire.batches[round])) {
      Violation(c, index, "in-process round " + std::to_string(round) +
                              " differs from the wire replay");
      ok = false;
      break;
    }
    for (size_t k = 0; k < batch.size() && !task.done(); ++k) {
      core::ImageFeedback fb = task.Label(batch[k].image_idx);
      lease = acquire(round_span.id());
      if (!(ok = lease.valid())) break;
      ++c.attempted;
      {
        ScopedSpan span(log, "core.searcher.feedback", round_span.id(), index);
        lease->AddFeedback(fb);
      }
      lease.Reset();
    }
    if (!ok) break;
    lease = acquire(round_span.id());
    if (!(ok = lease.valid())) break;
    {
      core::AlignerSnapshot snapshot = lease->aligner().Snapshot();
      tally.examples.push_back(
          static_cast<double>(lease->aligner().num_examples()));
      ScopedSpan span(log, "core.aligner.fit", round_span.id(), index);
      auto fit = core::QueryAligner::AlignWith(snapshot);
      if (!fit.ok()) Violation(c, index, "AlignWith: " + fit.status().ToString());
    }
    ++c.attempted;
    seesaw::Status refit;
    {
      ScopedSpan span(log, "core.searcher.refit", round_span.id(), index);
      refit = lease->Refit();
    }
    if (!refit.ok()) {
      ++c.failed;
      ok = false;
      break;
    }
    tally.iterations.push_back(lease->aligner().last_result().iterations);
    tally.function_evals.push_back(
        lease->aligner().last_result().function_evals);
    ++round;
  }
  if (core::SessionLease lease = acquire(session_span.id()); lease.valid()) {
    tally.prefetch_hits += lease->prefetch_stats().hits;
    tally.refit_matches += lease->prefetch_stats().refit_matches;
  }
  ++c.attempted;
  ScopedSpan span(log, "core.session.close", session_span.id(), index);
  if (!manager.Close(*id).ok()) ++c.failed;
  if (ok && task.relevance() != wire.relevance) {
    Violation(c, index, "in-process relevance differs from the wire replay");
  }
}

// Median wall time of encode + decode of each payload, in microseconds.
template <typename Fn>
double CodecMedianUs(size_t payloads, Fn&& encode_decode) {
  constexpr int kReps = 20;
  std::vector<double> us;
  for (size_t p = 0; p < payloads; ++p) {
    const auto start = Clock::now();
    for (int r = 0; r < kReps; ++r) encode_decode(p);
    us.push_back(MsSince(start) * 1e3 / kReps);
  }
  return Median(us);
}

int RunTraced(const Flags& flags, const Workload& w,
              std::vector<std::string> failures) {
  std::vector<SetupTimes> setups;
  std::unique_ptr<Deployment> d = DeployRepeatedly(w, flags.seed, &setups);
  const std::vector<size_t> concepts = SessionConcepts(*d->dataset, flags.seed);
  if (concepts.empty()) Die("no evaluable concepts");
  PrintWorkload(w, *d, flags.seed, concepts.size());
  const size_t sessions = std::min(kTraceSessions, concepts.size());
  const std::vector<size_t> trace_concepts(concepts.begin(),
                                           concepts.begin() + sessions);
  std::vector<Reference> refs = BruteForceRankings(
      d->embedded(), trace_concepts, kRefDepth, kReferenceThreads,
      w.precision == store::ScanPrecision::kInt8);

  Shared sh{*d, concepts};
  const LayerProbe probe(*d);
  std::vector<Client> clients;
  for (size_t t = 0; t < w.clients; ++t) clients.emplace_back(t);
  ConnectAll(clients, *d);
  auto always = [] { return true; };

  // The script replayed three ways until --seconds have passed (at least
  // once): over the wire untraced (the tracing-overhead baseline), over the
  // wire traced, and in process traced with the layer probes.
  std::vector<SessionOutcome> wire(sessions);
  std::vector<double> untraced_round_ms;
  std::vector<InProcessTally> tallies(clients.size());
  const CpuTimes cpu_before = ReadCpuTimes();
  const auto start = Clock::now();
  size_t passes = 0;
  do {
    std::atomic<size_t> next{0};
    std::vector<Samples> untimed(clients.size());
    RunClients(clients, next, sessions, always, [&](Client& c, size_t i) {
      RunWireSession(c, sh, i, &untimed[&c - clients.data()], nullptr, nullptr);
    });
    for (const Samples& s : untimed) {
      untraced_round_ms.insert(untraced_round_ms.end(), s.ms[kRound].begin(),
                               s.ms[kRound].end());
    }
    next = 0;
    RunClients(clients, next, sessions, always, [&](Client& c, size_t i) {
      wire[i] = RunWireSession(c, sh, i, nullptr, &c.log, nullptr);
    });
    next = 0;
    RunClients(clients, next, sessions, always, [&](Client& c, size_t i) {
      RunInProcessSession(c, sh, probe, i, wire[i],
                          tallies[&c - clients.data()]);
    });
    ++passes;
  } while (MsSince(start) / 1e3 < flags.seconds);
  const double steal = StealShare(cpu_before, ReadCpuTimes());

  // Wire spans are named wire.*, in-process ones inproc.*/core.*/store.*/
  // linalg.*, so one map holds both replays.
  std::vector<SpanLog> logs;
  for (const Client& c : clients) logs.push_back(c.log);

  std::map<std::string, std::vector<double>> ms = DurationsMs(logs);
  // A traced round's time is the sum of its calls, as in the untraced run
  // (the wire.round span also covers the client's own bookkeeping).
  std::vector<double> traced_round_ms;
  for (const SpanLog& log : logs) {
    std::map<uint64_t, double> round_ms;
    for (const Span& s : log.spans()) {
      if (std::strcmp(s.name, "wire.round") == 0) round_ms[s.id] = 0.0;
    }
    for (const Span& s : log.spans()) {
      auto it = round_ms.find(s.parent);
      if (it != round_ms.end()) {
        it->second += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    for (const auto& [id, total] : round_ms) traced_round_ms.push_back(total);
  }

  size_t attempted = 0, failed = 0;
  for (Client& c : clients) {
    attempted += c.attempted;
    failed += c.failed;
    failures.insert(failures.end(), c.violations.begin(), c.violations.end());
  }
  CheckSummary checks = CheckFixedSet(*d, w, trace_concepts, refs, wire);
  failures.insert(failures.end(), checks.failures.begin(),
                  checks.failures.end());

  // Wire codec cost on the replay's actual payloads, and bytes per round.
  std::vector<std::string> reply_payloads, feedback_payloads;
  double wire_bytes = 0;
  size_t wire_rounds = 0;
  for (size_t i = 0; i < sessions; ++i) {
    const SessionOutcome& o = wire[i];
    UserTask task(*d->dataset, sh.Concept(i));
    for (size_t r = 0; r < o.batches.size(); ++r) {
      net::NextBatchReply reply;
      reply.batch = o.batches[r];
      reply_payloads.push_back(net::EncodeNextBatchReply(reply));
      wire_bytes += 2 * net::kHeaderBytes +
                    net::EncodeNextBatchRequest({i, static_cast<uint32_t>(kBatch)}).size() +
                    reply_payloads.back().size();
      for (size_t k = 0; k < o.labelled[r]; ++k) {
        net::AddFeedbackRequest req;
        req.session_id = i;
        req.feedback = task.Label(o.batches[r][k].image_idx);
        feedback_payloads.push_back(net::EncodeAddFeedbackRequest(req));
        wire_bytes += 2 * net::kHeaderBytes + feedback_payloads.back().size();
      }
      wire_bytes += 2 * net::kHeaderBytes +
                     net::EncodeSessionRequest({i}).size();
      ++wire_rounds;
    }
  }
  const double reply_us =
      CodecMedianUs(reply_payloads.size(), [&](size_t p) {
        std::string frame =
            net::EncodeFrame(net::FrameType::kNextBatch, 1, reply_payloads[p]);
        net::FrameHeader header;
        net::NextBatchReply reply;
        if (!net::DecodeHeader(frame, &header) ||
            !net::DecodeNextBatchReply(
                std::string_view(frame).substr(net::kHeaderBytes), &reply)) {
          Die("NextBatch reply does not decode");
        }
        // Re-encode, as the server does for every reply.
        if (net::EncodeNextBatchReply(reply).size() != reply_payloads[p].size()) {
          Die("NextBatch reply does not round-trip");
        }
      });
  const double feedback_us =
      CodecMedianUs(feedback_payloads.size(), [&](size_t p) {
        std::string frame = net::EncodeFrame(net::FrameType::kAddFeedback, 1,
                                             feedback_payloads[p]);
        net::FrameHeader header;
        net::AddFeedbackRequest req;
        if (!net::DecodeHeader(frame, &header) ||
            !net::DecodeAddFeedbackRequest(
                std::string_view(frame).substr(net::kHeaderBytes), &req)) {
          Die("AddFeedback request does not decode");
        }
        if (net::EncodeAddFeedbackRequest(req).size() !=
            feedback_payloads[p].size()) {
          Die("AddFeedback request does not round-trip");
        }
      });

  const net::ServerStats server = d->server->stats();
  const double table_mb = probe.TableBytes() / (1024.0 * 1024.0);
  const double scan_bytes = probe.ScanBytes();

  auto med = [&](const char* name) { return Median(ms[name]); };
  InProcessTally all;
  for (const InProcessTally& t : tallies) {
    all.examples.insert(all.examples.end(), t.examples.begin(),
                        t.examples.end());
    all.iterations.insert(all.iterations.end(), t.iterations.begin(),
                          t.iterations.end());
    all.function_evals.insert(all.function_evals.end(),
                              t.function_evals.begin(),
                              t.function_evals.end());
    all.nextbatches += t.nextbatches;
    all.prefetch_hits += t.prefetch_hits;
    all.refit_matches += t.refit_matches;
  }
  const std::string trace_path = flags.trace_dir + "/" + w.name + "-seed" +
                                 std::to_string(flags.seed) + ".tsv";
  d.reset();
  const double triad = StreamTriadGBps(std::thread::hardware_concurrency());

  auto setup_med = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  const double acquire_ms = med("core.session.acquire");
  const double scan_ms = med("store.scan");
  const double kernel_ms = med("linalg.kernel");
  const double scan_gbps = scan_bytes / (scan_ms / 1e3) / 1e9;
  const double overhead_next = med("wire.nextbatch") - med("core.searcher.nextbatch");
  const double overhead_feedback =
      med("wire.feedback") - med("core.searcher.feedback");
  const double overhead_refit = med("wire.refit") - med("core.searcher.refit");
  const double overhead_create = med("wire.create") - med("core.session.create");
  std::vector<Metric> metrics = {
      {"setup.generate_s", setup_med(&SetupTimes::generate), "s"},
      {"setup.embed_s", setup_med(&SetupTimes::embed), "s"},
      {"setup.index_s", setup_med(&SetupTimes::index), "s"},
      {"setup.md_s", setup_med(&SetupTimes::md), "s"},
      {"setup.serve_start_s", setup_med(&SetupTimes::serve_start), "s"},
      {"store.table_mb", table_mb, "MB"},
      {"net.overhead_ms.nextbatch", overhead_next, "ms"},
      {"net.overhead_ms.feedback", overhead_feedback, "ms"},
      {"net.overhead_ms.refit", overhead_refit, "ms"},
      {"net.overhead_ms.create", overhead_create, "ms"},
      // What the wire adds beyond the spans under it (session lease and
      // payload codec): sockets, the server's event loop and its queue.
      {"net.residual_ms.nextbatch", overhead_next - acquire_ms - reply_us / 1e3,
       "ms"},
      {"net.residual_ms.feedback",
       overhead_feedback - acquire_ms - feedback_us / 1e3, "ms"},
      {"net.residual_ms.refit", overhead_refit - acquire_ms, "ms"},
      {"net.residual_ms.create", overhead_create, "ms"},
      {"net.codec_us.nextbatch_reply", reply_us, "us"},
      {"net.codec_us.feedback_request", feedback_us, "us"},
      {"net.bytes_per_round",
       wire_rounds ? wire_bytes / static_cast<double>(wire_rounds) : 0.0,
       "bytes"},
      {"net.server.requests_shed", static_cast<double>(server.requests_shed),
       "count"},
      {"net.server.requests_error", static_cast<double>(server.requests_error),
       "count"},
      {"net.server.malformed_frames",
       static_cast<double>(server.malformed_frames), "count"},
      {"core.session.create_ms", med("core.session.create"), "ms"},
      {"core.session.acquire_ms", acquire_ms, "ms"},
      {"core.session.close_ms", med("core.session.close"), "ms"},
      {"core.session.live_max", static_cast<double>(sh.live_max.load()),
       "count"},
      {"core.searcher.nextbatch_ms", med("core.searcher.nextbatch"), "ms"},
      {"core.searcher.feedback_ms", med("core.searcher.feedback"), "ms"},
      {"core.searcher.refit_ms", med("core.searcher.refit"), "ms"},
      {"core.searcher.nextbatch_self_ms",
       med("core.searcher.nextbatch") - scan_ms, "ms"},
      {"core.searcher.refit_self_ms",
       med("core.searcher.refit") - med("core.aligner.fit"), "ms"},
      {"core.prefetch.hit_rate",
       all.nextbatches ? static_cast<double>(all.prefetch_hits) /
                             static_cast<double>(all.nextbatches)
                       : 0.0,
       "ratio"},
      {"core.prefetch.refit_matches", static_cast<double>(all.refit_matches),
       "count"},
      {"core.aligner.fit_ms", med("core.aligner.fit"), "ms"},
      {"core.aligner.examples", Median(all.examples), "count"},
      {"optim.lbfgs.iterations", Median(all.iterations), "count"},
      {"optim.lbfgs.function_evals", Median(all.function_evals), "count"},
      {"store.scan_ms", scan_ms, "ms"},
      {"store.scan_serial_ms", med("store.scan_serial"), "ms"},
      {"store.scan_gb_per_s", scan_gbps, "GB/s"},
      {"store.bandwidth_fraction", triad > 0 ? scan_gbps / triad : 0.0,
       "ratio"},
      {"store.select_ms", med("store.scan_serial") - kernel_ms, "ms"},
      {"linalg.kernel_ms", kernel_ms, "ms"},
      {"trace.overhead_ms.round",
       Median(traced_round_ms) - Median(untraced_round_ms), "ms"},
  };

  std::error_code ec;
  std::filesystem::create_directories(flags.trace_dir, ec);
  if (!WriteSpans(trace_path, logs)) {
    std::fprintf(stderr, "e2ebench: could not write %s\n", trace_path.c_str());
  }

  std::printf("host %s\n",
              HostJson(CollectHost(flags.git_sha, triad, steal)).c_str());
  std::printf("traced replay: %zu sessions x %zu passes, %zu clients; spans in %s\n",
              sessions, passes, w.clients, trace_path.c_str());
  PrintChecks(w, checks);
  std::printf("round median: traced %.4f ms, untraced %.4f ms (n=%zu/%zu)\n",
              Median(traced_round_ms), Median(untraced_round_ms),
              traced_round_ms.size(), untraced_round_ms.size());
  for (const auto& [name, v] : ms) {
    std::printf("span %-26s n=%-6zu median %.4f ms\n", name.c_str(), v.size(),
                Median(v));
  }
  for (const Metric& m : metrics) {
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintFailures(failures);
  PrintResult(failures.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Flags flags = ParseFlags(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Die("unknown workload " + flags.workload);
  // The checker must catch corrupted replies before its verdicts count.
  std::vector<std::string> failures = SelfTest();
  return flags.trace ? RunTraced(flags, *workload, std::move(failures))
                     : RunUntraced(flags, *workload, std::move(failures));
}
