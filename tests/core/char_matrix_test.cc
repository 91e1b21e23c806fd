#include "core/char_matrix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "arch/dvfs.h"
#include "arch/platform.h"
#include "arch/platform_loader.h"
#include "core/trainer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace sb::core {
namespace {

class CharMatrixTest : public ::testing::Test {
 protected:
  CharMatrixTest()
      : platform_(arch::Platform::quad_heterogeneous()),
        perf_(platform_),
        power_(platform_, perf_),
        trainer_(perf_, power_),
        model_(trainer_.train(PredictorTrainer::default_training_profiles())) {}

  ThreadObservation observation_on(CoreId core, std::uint64_t seed = 3) {
    Rng rng(seed);
    auto o = trainer_.synthesize_observation(
        PredictorTrainer::default_training_profiles()[5],
        platform_.type_of(core), rng);
    o.tid = 1;
    o.core = core;
    return o;
  }

  arch::Platform platform_;
  perf::PerfModel perf_;
  power::PowerModel power_;
  PredictorTrainer trainer_;
  PredictorModel model_;
};

TEST_F(CharMatrixTest, ShapeAndBookkeeping) {
  const auto mx = build_characterization(
      {observation_on(1), observation_on(2)}, model_, platform_);
  EXPECT_EQ(mx.num_threads(), 2u);
  EXPECT_EQ(mx.num_cores(), 4u);
  EXPECT_EQ(mx.tids.size(), 2u);
  EXPECT_EQ(mx.current[0], 1);
  EXPECT_EQ(mx.current[1], 2);
}

TEST_F(CharMatrixTest, MeasuredColumnPassesThrough) {
  const auto o = observation_on(1);
  const auto mx = build_characterization({o}, model_, platform_);
  // Column 1 (the core it ran on): measured IPC × nominal GHz.
  const double expect_gips = o.ipc * platform_.params_of(1).freq_ghz();
  EXPECT_NEAR(mx.s_at(0, 1), expect_gips, 1e-9);
  EXPECT_NEAR(mx.p_at(0, 1), o.power_w, 1e-9);
}

TEST_F(CharMatrixTest, OtherColumnsArePredictedAndPositive) {
  const auto mx = build_characterization({observation_on(0)}, model_,
                                         platform_);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_GT(mx.s_at(0, j), 0.0) << j;
    EXPECT_GT(mx.p_at(0, j), 0.0) << j;
  }
  // Strong cores should be predicted faster in absolute GIPS.
  EXPECT_GT(mx.s_at(0, 0), mx.s_at(0, 3));
  // And the Huge core costs far more watts than the Small core.
  EXPECT_GT(mx.p_at(0, 0), 5 * mx.p_at(0, 3));
}

TEST_F(CharMatrixTest, UnmeasuredThreadGetsNeutralPrior) {
  ThreadObservation o;
  o.tid = 9;
  o.core = 2;
  o.core_type = 2;
  o.measured = false;
  o.instructions = 0;
  const auto mx = build_characterization({o}, model_, platform_);
  for (std::size_t j = 0; j < 4; ++j) {
    // Prior: IPC 0.5 everywhere → GIPS = 0.5 × freq.
    EXPECT_NEAR(mx.s_at(0, j),
                0.5 * platform_.params_of(static_cast<CoreId>(j)).freq_ghz(),
                1e-9);
    EXPECT_GT(mx.p_at(0, j), 0.0);
  }
}

TEST_F(CharMatrixTest, DvfsOppsScaleThroughputAndPower) {
  std::vector<arch::OperatingPoint> opps;
  for (CoreId c = 0; c < 4; ++c) {
    const auto& p = platform_.params_of(c);
    opps.push_back({p.freq_mhz, p.vdd});
  }
  // Down-clock the Big core (id 1) to 40% frequency at reduced voltage.
  opps[1] = {platform_.params_of(1).freq_mhz * 0.4,
             platform_.params_of(1).vdd * 0.7};

  const auto o = observation_on(0);
  const auto nominal = build_characterization({o}, model_, platform_);
  const auto scaled = build_characterization({o}, model_, platform_, &opps);

  // Unchanged cores keep their values.
  EXPECT_NEAR(scaled.s_at(0, 0), nominal.s_at(0, 0), 1e-9);
  EXPECT_NEAR(scaled.s_at(0, 3), nominal.s_at(0, 3), 1e-9);
  // The down-clocked core serves fewer GIPS — though more than the raw 0.4
  // frequency ratio for this memory-leaning profile (memory latency in
  // cycles shrinks with the clock) — and burns far less power (V²f).
  EXPECT_LT(scaled.s_at(0, 1), 0.85 * nominal.s_at(0, 1));
  EXPECT_GT(scaled.s_at(0, 1), 0.35 * nominal.s_at(0, 1));
  EXPECT_LT(scaled.p_at(0, 1), 0.4 * nominal.p_at(0, 1));
}

TEST_F(CharMatrixTest, OppVectorSizeValidated) {
  std::vector<arch::OperatingPoint> wrong(2, {1000, 0.8});
  EXPECT_THROW(build_characterization({observation_on(0)}, model_, platform_,
                                      &wrong),
               std::invalid_argument);
}

TEST_F(CharMatrixTest, EmptyObservationsGiveEmptyMatrices) {
  const auto mx = build_characterization({}, model_, platform_);
  EXPECT_EQ(mx.num_threads(), 0u);
}

/// Dense m×n reference: every cell evaluated for its own core, with no
/// column grouping. The compact m×G form must reproduce it bit for bit.
struct DenseSp {
  Matrix s, p;
};

DenseSp dense_reference(const std::vector<ThreadObservation>& observations,
                        const PredictorModel& predictor,
                        const arch::Platform& platform,
                        const std::vector<arch::OperatingPoint>* opps) {
  const std::size_t m = observations.size();
  const auto n = static_cast<std::size_t>(platform.num_cores());
  DenseSp out{Matrix(m, n), Matrix(m, n)};
  for (std::size_t i = 0; i < m; ++i) {
    const ThreadObservation& o = observations[i];
    const double src_freq =
        o.freq_mhz > 0
            ? o.freq_mhz
            : (o.core_type >= 0 ? platform.params_of_type(o.core_type).freq_mhz
                                : platform.params_of_type(0).freq_mhz);
    for (std::size_t j = 0; j < n; ++j) {
      const auto c = static_cast<CoreId>(j);
      const CoreTypeId type = platform.type_of(c);
      const double dst_freq =
          opps ? (*opps)[j].freq_mhz : platform.params_of(c).freq_mhz;
      const double scale =
          opps ? arch::dynamic_scale((*opps)[j], platform.params_of(c)) : 1.0;
      double ipc;
      double watts;
      if (!o.measured && o.instructions == 0) {
        ipc = 0.5;
        watts = predictor.predict_power(type, ipc) * scale;
      } else if (type == o.core_type && std::abs(dst_freq - src_freq) < 1e-6) {
        ipc = o.ipc;
        watts = std::max(1e-4, o.power_w);
      } else {
        ipc = predictor.predict_ipc(o, type, src_freq, dst_freq);
        watts = predictor.predict_power(type, ipc) * scale;
      }
      out.s.at(i, j) = ipc * dst_freq / 1000.0;
      out.p.at(i, j) = watts;
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Builds the compact form and checks every S(i, group_of[j]) and
/// P(i, group_of[j]) against the dense reference by bit pattern; returns G.
std::size_t expect_compact_matches_dense(
    const std::vector<ThreadObservation>& observations,
    const PredictorModel& model, const arch::Platform& platform,
    const std::vector<arch::OperatingPoint>* opps, const std::string& what) {
  const auto mx = build_characterization(observations, model, platform, opps);
  const DenseSp ref = dense_reference(observations, model, platform, opps);
  EXPECT_EQ(mx.num_cores(), static_cast<std::size_t>(platform.num_cores()));
  EXPECT_EQ(mx.s.cols(), mx.num_groups());
  const SpView view = mx.view();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    for (std::size_t j = 0; j < mx.num_cores(); ++j) {
      const double s = mx.s.at(i, mx.group_of[j]);
      const double p = mx.p.at(i, mx.group_of[j]);
      if (!same_bits(s, ref.s.at(i, j)) || !same_bits(p, ref.p.at(i, j)) ||
          !same_bits(view.s(i, j), s) || !same_bits(view.p(i, j), p)) {
        ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  // One group per (core type, operating point) pair at most.
  std::set<double> distinct_freqs;
  for (std::size_t j = 0; opps != nullptr && j < opps->size(); ++j) {
    distinct_freqs.insert((*opps)[j].freq_mhz);
  }
  const std::size_t opp_count = opps ? distinct_freqs.size() : 1;
  EXPECT_LE(mx.num_groups(),
            static_cast<std::size_t>(platform.num_types()) * opp_count)
      << what;
  return mx.num_groups();
}

/// A trained predictor for `platform`'s core types (members in
/// dependency order: the models keep references to the platform).
struct Trained {
  explicit Trained(arch::Platform p)
      : platform(std::move(p)),
        perf(platform),
        power(platform, perf),
        trainer(perf, power),
        model(trainer.train(PredictorTrainer::default_training_profiles())) {}
  arch::Platform platform;
  perf::PerfModel perf;
  power::PowerModel power;
  PredictorTrainer trainer;
  PredictorModel model;
};

TEST(CharMatrixCompact, BitIdenticalToDenseBroadcastOnRandomPlatforms) {
  // gen: platforms share the big/LITTLE core types, so one model trained on
  // the smallest of them serves every spec.
  const Trained gen(arch::generate_platform("1x1"));
  const Trained quad_trained(arch::Platform::quad_heterogeneous());
  const auto profiles = PredictorTrainer::default_training_profiles();

  Rng rng(20261018);
  std::size_t max_mixed_groups = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const bool quad = trial % 4 == 3;
    const arch::Platform platform =
        quad ? arch::Platform::quad_heterogeneous()
             : arch::generate_platform(
                   std::to_string(rng.randi(1, 9)) + "x" +
                   std::to_string(rng.randi(1, 17)) + ":" +
                   std::to_string(rng.randi(1, 5)));
    const Trained& tr = quad ? quad_trained : gen;
    const auto n = static_cast<std::size_t>(platform.num_cores());

    // Per-core mixed DVFS: every core at a random point of its typical table.
    std::vector<arch::OperatingPoint> opps;
    for (std::size_t j = 0; j < n; ++j) {
      const auto table = arch::OppTable::typical_for(
          platform.params_of(static_cast<CoreId>(j)));
      opps.push_back(table.at(static_cast<std::size_t>(
          rng.randi(0, static_cast<std::int64_t>(table.size())))));
    }

    // Two threads per core; every fifth thread is unmeasured, the rest are
    // measured at their core's nominal clock or (DVFS runs) its current OPP.
    for (const bool dvfs : {false, true}) {
      std::vector<ThreadObservation> observations;
      for (std::size_t t = 0; t < 2 * n; ++t) {
        const auto core = static_cast<CoreId>(t % n);
        ThreadObservation o = tr.trainer.synthesize_observation(
            profiles[t % profiles.size()], platform.type_of(core), rng);
        o.tid = static_cast<ThreadId>(t);
        o.core = core;
        o.core_type = platform.type_of(core);
        if (dvfs) o.freq_mhz = opps[static_cast<std::size_t>(core)].freq_mhz;
        if (t % 5 == 4) {
          o.measured = false;
          o.instructions = 0;
        }
        observations.push_back(o);
      }
      const std::size_t g = expect_compact_matches_dense(
          observations, tr.model, platform, dvfs ? &opps : nullptr,
          "trial " + std::to_string(trial) + (dvfs ? " dvfs" : " nominal"));
      if (dvfs && !quad) max_mixed_groups = std::max(max_mixed_groups, g);
    }
  }
  // Mixed OPPs really split the two gen: core types into more groups.
  EXPECT_GT(max_mixed_groups, 2u);
}

TEST(CharMatrixCompact, Gen1024HasTwoColumnGroups) {
  const Trained tr(arch::generate_platform("32x96:8"));
  const arch::Platform& platform = tr.platform;
  ASSERT_EQ(platform.num_cores(), 1024);
  const auto profiles = PredictorTrainer::default_training_profiles();
  Rng rng(7);
  std::vector<ThreadObservation> observations;
  for (int t = 0; t < 64; ++t) {
    const auto core = static_cast<CoreId>((t * 37) % platform.num_cores());
    ThreadObservation o = tr.trainer.synthesize_observation(
        profiles[static_cast<std::size_t>(t) % profiles.size()],
        platform.type_of(core), rng);
    o.tid = t;
    o.core = core;
    observations.push_back(o);
  }
  EXPECT_EQ(expect_compact_matches_dense(observations, tr.model, platform,
                                         nullptr, "gen:32x96:8"),
            2u);
}

}  // namespace
}  // namespace sb::core
