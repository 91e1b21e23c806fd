// Persistence round-trip tests for the predictor model (the deployment
// path: train offline, ship the text blob, load at boot).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "arch/platform.h"
#include "core/predictor.h"
#include "core/trainer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace sb::core {
namespace {

PredictorModel trained_model() {
  const auto platform = arch::Platform::quad_heterogeneous();
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  PredictorTrainer::Config cfg;
  cfg.replicas = 4;
  const PredictorTrainer trainer(perf, power, cfg);
  return trainer.train(PredictorTrainer::default_training_profiles());
}

TEST(PredictorIo, StreamRoundTripIsExact) {
  const PredictorModel original = trained_model();
  std::stringstream buf;
  original.save(buf);
  const PredictorModel restored = PredictorModel::load(buf);
  EXPECT_TRUE(restored == original)
      << "17-significant-digit serialization must round-trip exactly";
  // Spot-check behaviour, not just representation.
  ThreadObservation o;
  o.core_type = 0;
  o.ipc = 2.1;
  o.imsh = 0.3;
  o.measured = true;
  EXPECT_DOUBLE_EQ(restored.predict_ipc(o, 2, 2000, 1000),
                   original.predict_ipc(o, 2, 2000, 1000));
  EXPECT_DOUBLE_EQ(restored.predict_power(1, 1.5),
                   original.predict_power(1, 1.5));
}

TEST(PredictorIo, FileRoundTrip) {
  const std::string path = "predictor_io_test_tmp.model";
  const PredictorModel original = trained_model();
  original.save_to_file(path);
  const PredictorModel restored = PredictorModel::load_from_file(path);
  EXPECT_TRUE(restored == original);
  std::remove(path.c_str());
}

TEST(PredictorIo, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(PredictorModel::load(empty), std::runtime_error);

  std::stringstream wrong_magic("not-a-model v1\ntypes 2\n");
  EXPECT_THROW(PredictorModel::load(wrong_magic), std::runtime_error);

  std::stringstream bad_types("smartbalance-predictor v1\ntypes -3\n");
  EXPECT_THROW(PredictorModel::load(bad_types), std::runtime_error);

  // One more type than cores could exist: rejected before the 1025^2-pair
  // theta table (about 84 MB) is ever allocated.
  std::stringstream huge_types(
      "smartbalance-predictor v1\ntypes 1025\nipc_bounds 0.02 8\n");
  EXPECT_THROW(PredictorModel::load(huge_types), std::runtime_error);

  std::stringstream junk_number(
      "smartbalance-predictor v1\ntypes 2\nipc_bounds 0.02x 8\n");
  EXPECT_THROW(PredictorModel::load(junk_number), std::runtime_error);

  std::stringstream truncated(
      "smartbalance-predictor v1\ntypes 2\nipc_bounds 0.02 8\ntheta 0 1 1 2");
  EXPECT_THROW(PredictorModel::load(truncated), std::runtime_error);

  std::stringstream bad_index(
      "smartbalance-predictor v1\ntypes 2\nipc_bounds 0.02 8\n"
      "theta 0 5 0 0 0 0 0 0 0 0 0 0\n");
  EXPECT_THROW(PredictorModel::load(bad_index), std::runtime_error);

  std::stringstream unknown(
      "smartbalance-predictor v1\ntypes 2\nipc_bounds 0.02 8\nfrobnicate 1\n");
  EXPECT_THROW(PredictorModel::load(unknown), std::runtime_error);
}

TEST(PredictorIo, MissingFileThrows) {
  EXPECT_THROW(PredictorModel::load_from_file("/no/such/file.model"),
               std::runtime_error);
}

TEST(PredictorIo, LoadedModelDrivesThePolicy) {
  // End-to-end: a model that went through serialization must produce the
  // same balancing decisions as the in-memory one.
  const PredictorModel original = trained_model();
  std::stringstream buf;
  original.save(buf);
  const PredictorModel restored = PredictorModel::load(buf);
  const auto platform = arch::Platform::quad_heterogeneous();
  // Equality of behaviour on every type pair and a grid of observations.
  for (CoreTypeId s = 0; s < 4; ++s) {
    for (CoreTypeId d = 0; d < 4; ++d) {
      if (s == d) continue;
      for (double ipc : {0.2, 0.8, 1.6, 3.2}) {
        ThreadObservation o;
        o.core_type = s;
        o.ipc = ipc;
        o.mr_l1d = 0.04;
        o.imsh = 0.25;
        o.measured = true;
        EXPECT_DOUBLE_EQ(
            original.predict_ipc(o, d, platform.params_of_type(s).freq_mhz,
                                 platform.params_of_type(d).freq_mhz),
            restored.predict_ipc(o, d, platform.params_of_type(s).freq_mhz,
                                 platform.params_of_type(d).freq_mhz));
      }
    }
  }
}

}  // namespace
}  // namespace sb::core
