// Output checks that do not trust the program under test.
//
// The reference ranking is the benchmark's own brute-force zero-shot search:
// every patch vector of EmbeddedDataset::vectors() scored against the text
// query in double precision, max-pooled per image, ordered by score and then
// image index. Against it the benchmark checks the first batch of a session,
// computes the zero-shot task AP the paper compares SeeSaw with, and checks
// the properties every NextBatch reply must have.
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/embedded_dataset.h"
#include "core/searcher.h"
#include "data/dataset.h"

namespace e2e {

struct RankedImage {
  uint32_t image = 0;
  double score = 0.0;
};

/// The exact zero-shot ranking of one concept.
struct Reference {
  size_t concept_id = 0;
  /// The best images, best first by (score desc, image asc).
  std::vector<RankedImage> top;
  /// Largest error an fp32 scan score of this query can have against the
  /// exact value, over all table rows: gamma_d * |q| * |x|, with
  /// gamma_d = d*u / (1 - d*u) and u = 2^-24 (the bound for any summation
  /// order).
  double fp32_tolerance = 0.0;
  /// The same ranking under the int8 scan's own arithmetic (filled when
  /// asked for): every row and the query quantized as linalg/quantize.h
  /// documents (per-vector scale = max|v| / 127, round to nearest even,
  /// clamped to +-127), the integer dot taken exactly and multiplied by
  /// the two scales in float. Every int8 kernel is bitwise equal to this,
  /// so an int8 scan's first batch must match it exactly, scores included.
  std::vector<RankedImage> int8_top;
};

/// Brute-force rankings for `concepts`, `depth` images deep, computed with
/// `threads` threads of its own (not the program's pool); with `int8` also
/// the int8 ranking.
std::vector<Reference> BruteForceRankings(
    const seesaw::core::EmbeddedDataset& embedded,
    const std::vector<size_t>& concepts, size_t depth, size_t threads,
    bool int8);

/// The paper's task AP (§5.1): the inspected images' relevance in order,
/// R = min(target, total_relevant) and AP = (sum of the precision at each of
/// the first `target` positives) / R.
double TaskAp(const std::vector<char>& relevance, size_t total_relevant,
              size_t target);

/// Relevance sequence of the zero-shot user on the reference ranking: it
/// inspects images in order until `target` positives or `max_inspected`
/// images.
std::vector<char> ZeroShotRelevance(const Reference& ref,
                                    const seesaw::data::Dataset& dataset,
                                    size_t target, size_t max_inspected);

/// Properties every NextBatch reply must have: at most `n` images, none
/// repeated, none already labelled in the session (`seen`, indexed by
/// image), scores non-increasing and not NaN. Returns "" when the reply has
/// them, else what is wrong.
std::string CheckReply(const std::vector<seesaw::core::ScoredImage>& batch,
                       size_t n, const std::vector<char>& seen);

/// First batch of a session against a reference ranking `top`: the same
/// images in the same order, and every score within `tolerance` (the scan
/// precision's error bound; 0 against the int8 ranking, which is exact) of
/// its reference value. Only images whose reference scores lie within twice
/// the bound of each other may trade places: the score-then-id order cannot
/// be decided beyond the scan's rounding. Returns "" when it matches.
std::string CheckFirstBatch(
    const std::vector<seesaw::core::ScoredImage>& batch,
    const std::vector<RankedImage>& top, size_t n, double tolerance);

/// Images of the batch that are in the reference top-n (recall numerator).
size_t CountRecalled(const std::vector<seesaw::core::ScoredImage>& batch,
                     const Reference& ref, size_t n);

/// Feeds the checks above corrupted replies (a duplicate, a seen image, an
/// out-of-order batch, a wrong top-10, a wrong score, an oversized batch)
/// and a correct one, at the exact (int8) tolerance and at a typical fp32
/// one. Returns one line per check that let a corruption
/// through or rejected the correct reply; empty means the checker works.
std::vector<std::string> SelfTest();

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
