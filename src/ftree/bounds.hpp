// Bounding algorithms for large combinatorial models.
//
// The tutorial's Boeing 787 case: the exact top-event probability of a very
// large fault tree is infeasible, so certified bounds are computed from
// (possibly truncated) minimal cut / path sets instead. Three families:
//
//  * union/max bounds        — max_C P(C)  <=  Q  <=  sum_C P(C)
//  * Bonferroni (truncated inclusion-exclusion) — partial sums S_1 - S_2 +
//    S_3 ... alternate above/below Q; depth d gives an interval whose width
//    shrinks with d at combinatorial cost C(m, d)
//  * Esary-Proschan          — products over cut sets (upper) and path sets
//    (lower), linear cost, valid for coherent systems of independent
//    components
//
// Cut sets are lists of event indices into a probability vector q (failure
// probabilities). All bounds assume independence and coherence.
#pragma once

#include <cstdint>
#include <vector>

#include "common/interval.hpp"

namespace relkit::ftree {

using CutSet = std::vector<std::uint32_t>;

/// P(all events of `cut` occur) under independence.
double cut_probability(const CutSet& cut, const std::vector<double>& q);

/// max-cut lower bound and union (rare-event) upper bound.
Interval union_bound(const std::vector<CutSet>& cuts,
                     const std::vector<double>& q);

/// Bonferroni bounds from truncated inclusion-exclusion up to `depth` terms
/// (depth >= 1). Uses exact joint probabilities of cut unions. Cost grows as
/// C(#cuts, depth); intended for depth <= 4 on at most a few hundred cuts.
Interval bonferroni_bound(const std::vector<CutSet>& cuts,
                          const std::vector<double>& q, std::uint32_t depth);

/// Esary-Proschan bounds. `paths` are minimal path sets (indices into the
/// same event space); pass an empty list to get a 0 lower bound.
Interval esary_proschan_bound(const std::vector<CutSet>& cuts,
                              const std::vector<CutSet>& paths,
                              const std::vector<double>& q);

/// Exact top-event probability by complete inclusion-exclusion over the
/// minimal cut sets (all 2^#cuts - 1 unions; not sum of disjoint
/// products). Exponential in the number of cuts; reference implementation
/// for validating bounds on small models. Throws if #cuts > 25.
double exact_from_cuts(const std::vector<CutSet>& cuts,
                       const std::vector<double>& q);

}  // namespace relkit::ftree
