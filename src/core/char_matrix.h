// The throughput and power characterization matrices S(k) and P(k)
// (Eqs. 2 & 3): row i = thread t_i, column j = core c_j. The column for the
// core a thread actually ran on holds the *measured* value; every other
// column is filled by the cross-core-type predictor (paper §4.2.2,
// "values that are unavailable are predicted").
//
// A cell depends on its column only through the core's type, effective
// frequency and power scale (Eq. 8 predicts per core type), so cores sharing
// that triple form one column group and share one value. The matrices are
// stored as m×G cells plus a core → group index; G is at most types × OPPs
// (2 on a 1024-core big.LITTLE at nominal frequency). S(i, j) reads cell
// (i, group_of[j]); SpView is the m×n read path every balancing stage uses.
//
// Units: S holds GIPS (10^9 instructions/s) so that objective values stay
// in a numerically comfortable range for the fixed-point acceptance path.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/dvfs.h"
#include "arch/platform.h"
#include "common/matrix.h"
#include "core/features.h"
#include "core/predictor.h"
#include "core/sp_view.h"

namespace sb::core {

struct CharacterizationMatrices {
  Matrix s;                             // m×G predicted/measured GIPS
  Matrix p;                             // m×G predicted/measured watts
  std::vector<std::uint32_t> group_of;  // core → column group
  std::vector<CoreTypeId> group_type;   // column group → core type
  std::vector<ThreadId> tids;           // row → thread
  std::vector<CoreId> current;          // row → core the thread is on now

  std::size_t num_threads() const { return tids.size(); }
  std::size_t num_cores() const { return group_of.size(); }
  std::size_t num_groups() const { return group_type.size(); }

  /// S(i, j) and P(i, j): thread row i's cell on core j.
  double s_at(std::size_t i, CoreId j) const {
    return s.at(i, group_of[static_cast<std::size_t>(j)]);
  }
  double p_at(std::size_t i, CoreId j) const {
    return p.at(i, group_of[static_cast<std::size_t>(j)]);
  }

  /// The m×n thread × core view (valid while this object is unchanged).
  SpView view() const { return SpView(s, p, group_of); }
};

/// Builds S and P for the given epoch observations.
///
/// `core_opps` (optional, indexed by CoreId) supplies each core's *current*
/// DVFS operating point; predictions then target that point — the FR
/// feature and the GIPS conversion use the actual frequency, and predicted
/// power is scaled by the V²f dynamic-power law relative to nominal (a
/// slight overestimate of low-V savings on the leakage share, documented
/// in DESIGN.md). Without it, all cores are assumed at nominal.
CharacterizationMatrices build_characterization(
    const std::vector<ThreadObservation>& observations,
    const PredictorModel& predictor, const arch::Platform& platform,
    const std::vector<arch::OperatingPoint>* core_opps = nullptr);

}  // namespace sb::core
