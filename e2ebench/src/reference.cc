#include "reference.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <unordered_set>

namespace e2e {

namespace {

using seesaw::core::ScoredImage;

// Queries scored together in one pass over the table.
constexpr size_t kQueryBlock = 16;

double L2(seesaw::linalg::VecSpan v) {
  double sq = 0;
  for (float f : v) sq += static_cast<double>(f) * static_cast<double>(f);
  return std::sqrt(sq);
}

// Symmetric int8 quantization of one vector as linalg/quantize.h documents
// it; the division by the scale is a multiply by its float reciprocal, as
// in the library. Returns the scale.
float Quantize(const float* v, size_t dim, int8_t* out) {
  float max_abs = 0.0f;
  for (size_t i = 0; i < dim; ++i) {
    max_abs = std::max(max_abs, std::fabs(v[i]));
  }
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  for (size_t i = 0; i < dim; ++i) {
    const float q = std::nearbyintf(v[i] * inv);
    out[i] = static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
  }
  return scale;
}

bool Better(const RankedImage& a, const RankedImage& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.image < b.image;
}

// The `depth` best images of column j of `best` (images x kQueryBlock).
template <typename T>
std::vector<RankedImage> Rank(const std::vector<T>& best, size_t j,
                              size_t images, size_t depth) {
  std::vector<RankedImage> ranked(images);
  for (size_t img = 0; img < images; ++img) {
    ranked[img] = {static_cast<uint32_t>(img),
                   static_cast<double>(best[img * kQueryBlock + j])};
  }
  const size_t keep = std::min(depth, images);
  std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                    Better);
  return std::vector<RankedImage>(ranked.begin(), ranked.begin() + keep);
}

// The table quantized row by row, as the int8 scan stores it.
struct Int8Table {
  std::vector<int8_t> data;
  std::vector<float> scales;
};

// Scores one block of queries against every row and keeps each image's
// maximum; then ranks the images of each query.
void RankBlock(const seesaw::core::EmbeddedDataset& embedded,
               const std::vector<size_t>& concepts, size_t first,
               size_t count, size_t depth, double max_row_l2,
               const Int8Table* int8, std::vector<Reference>* out) {
  const seesaw::linalg::MatrixF& table = embedded.vectors();
  const size_t dim = table.cols();
  const size_t images = embedded.num_images();
  // Transposed query block: qt[i * kQueryBlock + j] = query j, element i;
  // the int8 block q8 the same way, held in float: every partial sum of an
  // int8 dot is an integer of magnitude at most dim * 127 * 127, below 2^24
  // up to dim 1040, so float accumulation is exact there.
  std::vector<double> qt(dim * kQueryBlock, 0.0);
  std::vector<float> q8(int8 ? dim * kQueryBlock : 0, 0.0f);
  std::vector<float> q8_scale(kQueryBlock, 0.0f);
  std::vector<double> q_l2(kQueryBlock, 0.0);
  std::vector<int8_t> buf(dim);
  for (size_t j = 0; j < count; ++j) {
    seesaw::linalg::VectorF q = embedded.TextQuery(concepts[first + j]);
    for (size_t i = 0; i < dim; ++i) qt[i * kQueryBlock + j] = q[i];
    q_l2[j] = L2(q);
    if (int8) {
      q8_scale[j] = Quantize(q.data(), dim, buf.data());
      for (size_t i = 0; i < dim; ++i) q8[i * kQueryBlock + j] = buf[i];
    }
  }
  std::vector<double> best(images * kQueryBlock,
                           -std::numeric_limits<double>::infinity());
  std::vector<float> best8(int8 ? images * kQueryBlock : 0,
                           -std::numeric_limits<float>::infinity());
  double acc[kQueryBlock];
  float acc8[kQueryBlock];
  for (size_t r = 0; r < table.rows(); ++r) {
    const float* x = table.Row(r).data();
    const size_t img = embedded.patch(static_cast<uint32_t>(r)).image_idx;
    std::fill(acc, acc + kQueryBlock, 0.0);
    for (size_t i = 0; i < dim; ++i) {
      // float * float is exact in double; the sum runs in row order.
      const double xi = x[i];
      const double* q = &qt[i * kQueryBlock];
      for (size_t j = 0; j < kQueryBlock; ++j) acc[j] += xi * q[j];
    }
    double* m = &best[img * kQueryBlock];
    for (size_t j = 0; j < kQueryBlock; ++j) m[j] = std::max(m[j], acc[j]);
    if (int8 == nullptr) continue;
    const int8_t* x8 = int8->data.data() + r * dim;
    const float x_scale = int8->scales[r];
    std::fill(acc8, acc8 + kQueryBlock, 0.0f);
    for (size_t i = 0; i < dim; ++i) {
      const float xi = x8[i];
      const float* q = &q8[i * kQueryBlock];
      for (size_t j = 0; j < kQueryBlock; ++j) acc8[j] += xi * q[j];
    }
    float* m8 = &best8[img * kQueryBlock];
    for (size_t j = 0; j < kQueryBlock; ++j) {
      const float score = acc8[j] * (x_scale * q8_scale[j]);
      m8[j] = std::max(m8[j], score);
    }
  }
  const double u = std::ldexp(1.0, -24);
  const double d = static_cast<double>(dim);
  const double gamma = d * u / (1.0 - d * u);
  for (size_t j = 0; j < count; ++j) {
    Reference& ref = (*out)[first + j];
    ref.concept_id = concepts[first + j];
    ref.top = Rank(best, j, images, depth);
    ref.fp32_tolerance = gamma * q_l2[j] * max_row_l2;
    if (int8 != nullptr) ref.int8_top = Rank(best8, j, images, depth);
  }
}

const RankedImage* FindRanked(const std::vector<RankedImage>& top,
                              uint32_t image) {
  for (const RankedImage& r : top) {
    if (r.image == image) return &r;
  }
  return nullptr;
}

}  // namespace

std::vector<Reference> BruteForceRankings(
    const seesaw::core::EmbeddedDataset& embedded,
    const std::vector<size_t>& concepts, size_t depth, size_t threads,
    bool int8) {
  const seesaw::linalg::MatrixF& table = embedded.vectors();
  const size_t rows = table.rows();
  const size_t dim = table.cols();
  threads = std::max<size_t>(1, threads);
  // Runs body(t) on `threads` threads of the benchmark's own.
  auto parallel = [threads](auto&& body) {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) workers.emplace_back(body, t);
    for (std::thread& w : workers) w.join();
  };

  // Beyond dim 1040 the float accumulation of RankBlock would round; the
  // int8 ranking is then left empty and every int8 first batch fails.
  int8 = int8 && dim <= 1040;
  std::vector<double> max_l2(threads, 0.0);
  Int8Table quantized;
  if (int8) {
    quantized.data.resize(rows * dim);
    quantized.scales.resize(rows);
  }
  parallel([&](size_t t) {
    for (size_t r = t; r < rows; r += threads) {
      max_l2[t] = std::max(max_l2[t], L2(table.Row(r)));
      if (int8) {
        quantized.scales[r] = Quantize(table.Row(r).data(), dim,
                                       quantized.data.data() + r * dim);
      }
    }
  });
  const double max_row_l2 = *std::max_element(max_l2.begin(), max_l2.end());

  std::vector<Reference> out(concepts.size());
  const size_t blocks = (concepts.size() + kQueryBlock - 1) / kQueryBlock;
  std::atomic<size_t> next{0};
  parallel([&](size_t) {
    for (size_t b = next.fetch_add(1); b < blocks; b = next.fetch_add(1)) {
      const size_t first = b * kQueryBlock;
      const size_t count = std::min(kQueryBlock, concepts.size() - first);
      RankBlock(embedded, concepts, first, count, depth, max_row_l2,
                int8 ? &quantized : nullptr, &out);
    }
  });
  return out;
}

double TaskAp(const std::vector<char>& relevance, size_t total_relevant,
              size_t target) {
  const size_t r = std::min(target, total_relevant);
  if (r == 0) return 0.0;
  double sum = 0.0;
  size_t found = 0;
  for (size_t i = 0; i < relevance.size() && found < target; ++i) {
    if (!relevance[i]) continue;
    ++found;
    sum += static_cast<double>(found) / static_cast<double>(i + 1);
  }
  return sum / static_cast<double>(r);
}

std::vector<char> ZeroShotRelevance(const Reference& ref,
                                    const seesaw::data::Dataset& dataset,
                                    size_t target, size_t max_inspected) {
  std::vector<char> relevance;
  size_t found = 0;
  for (const RankedImage& r : ref.top) {
    if (found >= target || relevance.size() >= max_inspected) break;
    const bool hit = dataset.IsPositive(r.image, ref.concept_id);
    relevance.push_back(hit ? 1 : 0);
    found += hit ? 1 : 0;
  }
  return relevance;
}

std::string CheckReply(const std::vector<ScoredImage>& batch, size_t n,
                       const std::vector<char>& seen) {
  if (batch.size() > n) {
    return "batch of " + std::to_string(batch.size()) + " > n=" +
           std::to_string(n);
  }
  std::unordered_set<uint32_t> shown;
  for (size_t k = 0; k < batch.size(); ++k) {
    const ScoredImage& s = batch[k];
    if (s.image_idx >= seen.size()) {
      return "image " + std::to_string(s.image_idx) + " out of range";
    }
    if (!shown.insert(s.image_idx).second) {
      return "image " + std::to_string(s.image_idx) + " repeated";
    }
    if (seen[s.image_idx]) {
      return "image " + std::to_string(s.image_idx) + " already labelled";
    }
    if (std::isnan(s.score)) return "NaN score";
    if (k > 0 && s.score > batch[k - 1].score) {
      return "scores increase at position " + std::to_string(k);
    }
  }
  return "";
}

std::string CheckFirstBatch(const std::vector<ScoredImage>& batch,
                            const std::vector<RankedImage>& top, size_t n,
                            double tolerance) {
  const size_t want = std::min(n, top.size());
  if (batch.size() != want) {
    return "first batch has " + std::to_string(batch.size()) +
           " images, reference " + std::to_string(want);
  }
  if (want == 0) return "";
  const double slack = 2.0 * tolerance;
  const double boundary = top[want - 1].score;
  std::vector<double> exact(batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    const RankedImage* r = FindRanked(top, batch[k].image_idx);
    if (r == nullptr) {
      return "image " + std::to_string(batch[k].image_idx) +
             " is not near the reference top";
    }
    exact[k] = r->score;
    if (std::fabs(static_cast<double>(batch[k].score) - r->score) >
        tolerance) {
      return "image " + std::to_string(batch[k].image_idx) + " scored " +
             std::to_string(batch[k].score) + ", reference " +
             std::to_string(r->score);
    }
    if (r->score < boundary - slack) {
      return "image " + std::to_string(batch[k].image_idx) +
             " is outside the reference top-" + std::to_string(want);
    }
    if (k > 0 && (exact[k] > exact[k - 1] + slack ||
                  (slack == 0 && exact[k] == exact[k - 1] &&
                   batch[k].image_idx < batch[k - 1].image_idx))) {
      return "order differs from the reference at position " +
             std::to_string(k);
    }
  }
  for (size_t k = 0; k < top.size() && top[k].score > boundary + slack; ++k) {
    bool present = false;
    for (const ScoredImage& s : batch) present |= s.image_idx == top[k].image;
    if (!present) {
      return "reference image " + std::to_string(top[k].image) +
             " missing from the first batch";
    }
  }
  return "";
}

size_t CountRecalled(const std::vector<ScoredImage>& batch,
                     const Reference& ref, size_t n) {
  size_t hits = 0;
  const size_t want = std::min(n, ref.top.size());
  for (const ScoredImage& s : batch) {
    for (size_t k = 0; k < want; ++k) hits += ref.top[k].image == s.image_idx;
  }
  return hits;
}

std::vector<std::string> SelfTest() {
  constexpr size_t kN = 10;
  Reference ref;
  // Scores are floats, as the int8 reference's are.
  for (uint32_t i = 0; i < 20; ++i) {
    ref.top.push_back({i * 3 + 1, static_cast<float>(0.9 - 0.01 * i)});
  }
  std::vector<ScoredImage> good;
  for (size_t k = 0; k < kN; ++k) {
    good.push_back({ref.top[k].image, static_cast<float>(ref.top[k].score)});
  }
  const std::vector<char> unseen(100, 0);
  std::vector<std::string> failures;
  auto expect = [&](bool caught, const std::string& what) {
    if (!caught) failures.push_back("self-test: " + what);
  };

  expect(CheckReply(good, kN, unseen).empty(), "correct reply rejected");
  expect(CountRecalled(good, ref, kN) == kN, "correct batch recall < 1");

  std::vector<ScoredImage> dup = good;
  dup[3] = dup[2];
  expect(!CheckReply(dup, kN, unseen).empty(), "duplicate image let through");

  std::vector<char> seen = unseen;
  seen[good[4].image_idx] = 1;
  expect(!CheckReply(good, kN, seen).empty(), "seen image let through");

  std::vector<ScoredImage> swapped = good;
  std::swap(swapped[1], swapped[2]);
  expect(!CheckReply(swapped, kN, unseen).empty(),
         "out-of-order batch let through");

  std::vector<ScoredImage> big = good;
  big.push_back({ref.top[kN].image, static_cast<float>(ref.top[kN].score)});
  expect(!CheckReply(big, kN, unseen).empty(), "oversized batch let through");

  // The 10th best swapped for the 11th, which scores just below it.
  std::vector<ScoredImage> wrong = good;
  wrong[kN - 1] = {ref.top[kN].image, static_cast<float>(ref.top[kN].score)};
  expect(CountRecalled(wrong, ref, kN) == kN - 1,
         "wrong top-10 counted as recalled");

  // Exact (the int8 workload) and a typical fp32 bound of the workloads.
  for (double tol : {0.0, 3e-5}) {
    const std::string at = " at tolerance " + std::to_string(tol);
    expect(CheckFirstBatch(good, ref.top, kN, tol).empty(),
           "correct first batch rejected" + at);
    expect(!CheckFirstBatch(swapped, ref.top, kN, tol).empty(),
           "out-of-order first batch let through" + at);
    expect(!CheckFirstBatch(wrong, ref.top, kN, tol).empty(),
           "wrong top-10 let through" + at);
    // A score just beyond the bound.
    std::vector<ScoredImage> off = good;
    float bad = static_cast<float>(ref.top[5].score + tol);
    while (std::fabs(static_cast<double>(bad) - ref.top[5].score) <= tol) {
      bad = std::nextafter(bad, 1.0f);
    }
    off[5].score = bad;
    expect(!CheckFirstBatch(off, ref.top, kN, tol).empty(),
           "wrong score let through" + at);
  }

  // Exact: an image scoring one float step below the 10th best in place of
  // it.
  Reference near = ref;
  near.top[kN].score =
      std::nextafter(static_cast<float>(near.top[kN - 1].score), 0.0f);
  std::vector<ScoredImage> near_batch = good;
  near_batch[kN - 1] = {near.top[kN].image,
                        static_cast<float>(near.top[kN].score)};
  expect(!CheckFirstBatch(near_batch, near.top, kN, 0.0).empty(),
         "near-miss top-10 let through at tolerance 0");

  // Two images tied on the reference score must come lowest index first
  // when the check is exact.
  Reference tied = ref;
  tied.top[3].score = tied.top[2].score;
  std::vector<ScoredImage> tied_batch = good;
  tied_batch[3].score = tied_batch[2].score;
  expect(CheckFirstBatch(tied_batch, tied.top, kN, 0.0).empty(),
         "tied first batch in index order rejected");
  std::swap(tied_batch[2], tied_batch[3]);
  expect(!CheckFirstBatch(tied_batch, tied.top, kN, 0.0).empty(),
         "tied first batch out of index order let through");
  return failures;
}

}  // namespace e2e
