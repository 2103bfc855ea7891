#include "bbw/vehicle.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bbw/control.hpp"
#include "bbw/cu_task.hpp"

namespace nlft::bbw {
namespace {

/// One wheel node's ABS state, driven through wheelControlFixedPoint() the
/// way BbwSystemSim drives it: request, slip and limit travel in q8.8.
struct WheelAbs {
  std::int32_t limitQ8 = -1;

  double update(double requestedTorqueNm, double measuredSlip) {
    const std::int32_t torqueQ8 = wheelControlFixedPoint(
        static_cast<std::int32_t>(std::lround(requestedTorqueNm * 256.0)),
        static_cast<std::int32_t>(std::lround(measuredSlip * 256.0)), limitQ8, &limitQ8);
    return static_cast<double>(torqueQ8) / 256.0;
  }
};

TEST(Burckhardt, CurveShape) {
  const VehicleParams params;
  EXPECT_DOUBLE_EQ(burckhardtMu(params, 0.0), 0.0);
  // Friction peaks somewhere below 0.3 slip and decreases toward lock-up.
  const double peak = burckhardtMu(params, 0.15);
  EXPECT_GT(peak, 1.0);
  EXPECT_GT(peak, burckhardtMu(params, 0.05));
  EXPECT_GT(peak, burckhardtMu(params, 1.0));
  // Clamped outside [0, 1].
  EXPECT_DOUBLE_EQ(burckhardtMu(params, 2.0), burckhardtMu(params, 1.0));
}

TEST(Vehicle, CoastsWithOnlyRollingResistance) {
  Vehicle vehicle;
  vehicle.reset(20.0);
  for (int i = 0; i < 1000; ++i) vehicle.step(0.001);  // 1 s
  // Rolling resistance decel ~0.147 m/s^2.
  EXPECT_NEAR(vehicle.speedMps(), 20.0 - 0.147, 0.02);
}

TEST(Vehicle, BrakingDeceleratesAndStops) {
  Vehicle vehicle;
  vehicle.reset(27.8);  // ~100 km/h
  for (std::size_t w = 0; w < kWheelCount; ++w) vehicle.setBrakeTorque(w, 1100.0);
  int steps = 0;
  while (!vehicle.stopped() && steps < 20000) {
    vehicle.step(0.001);
    ++steps;
  }
  EXPECT_TRUE(vehicle.stopped());
  // Full braking from 100 km/h on dry asphalt: roughly 40-60 m.
  EXPECT_GT(vehicle.distanceM(), 30.0);
  EXPECT_LT(vehicle.distanceM(), 80.0);
}

TEST(Vehicle, ExcessiveTorqueLocksTheWheel) {
  Vehicle vehicle;
  vehicle.reset(27.8);
  vehicle.setBrakeTorque(FrontLeft, 5000.0);
  for (int i = 0; i < 300; ++i) vehicle.step(0.001);
  EXPECT_GT(vehicle.slip(FrontLeft), 0.9);          // locked
  EXPECT_LT(vehicle.slip(RearRight), 0.05);         // free rolling
}

TEST(Vehicle, MissingOneWheelLengthensTheStop) {
  auto stoppingDistance = [](int activeWheels) {
    Vehicle vehicle;
    vehicle.reset(27.8);
    for (int w = 0; w < activeWheels; ++w) vehicle.setBrakeTorque(w, 1100.0);
    int steps = 0;
    while (!vehicle.stopped() && steps < 60000) {
      vehicle.step(0.001);
      ++steps;
    }
    return vehicle.distanceM();
  };
  const double four = stoppingDistance(4);
  const double three = stoppingDistance(3);
  EXPECT_GT(three, four * 1.05);  // degraded mode brakes measurably worse
}

TEST(Vehicle, ResetRestoresInitialState) {
  Vehicle vehicle;
  vehicle.reset(10.0);
  vehicle.setBrakeTorque(0, 500.0);
  for (int i = 0; i < 100; ++i) vehicle.step(0.001);
  vehicle.reset(15.0);
  EXPECT_DOUBLE_EQ(vehicle.speedMps(), 15.0);
  EXPECT_DOUBLE_EQ(vehicle.distanceM(), 0.0);
  EXPECT_DOUBLE_EQ(vehicle.brakeTorque(0), 0.0);
  EXPECT_NEAR(vehicle.slip(0), 0.0, 1e-12);
}

TEST(Vehicle, NegativeTorqueClampedToZero) {
  Vehicle vehicle;
  vehicle.reset(10.0);
  vehicle.setBrakeTorque(0, -100.0);
  EXPECT_DOUBLE_EQ(vehicle.brakeTorque(0), 0.0);
  EXPECT_THROW(vehicle.reset(-1.0), std::invalid_argument);
}

TEST(Vehicle, SplitMuSurfaceLocksTheLowFrictionWheelFirst) {
  VehicleParams params;
  params.frictionScale = {1.0, 0.25, 1.0, 0.25};  // right side on ice
  Vehicle vehicle{params};
  vehicle.reset(20.0);
  for (std::size_t w = 0; w < kWheelCount; ++w) vehicle.setBrakeTorque(w, 900.0);
  for (int i = 0; i < 400; ++i) vehicle.step(0.001);
  // The icy wheels cannot transfer 900 Nm: they lock; the grippy side holds.
  EXPECT_GT(vehicle.slip(FrontRight), 0.8);
  EXPECT_LT(vehicle.slip(FrontLeft), 0.3);
}

TEST(Vehicle, AbsControlsEachWheelToItsOwnSurface) {
  VehicleParams params;
  params.frictionScale = {1.0, 0.25, 1.0, 0.25};
  Vehicle vehicle{params};
  vehicle.reset(20.0);
  std::array<WheelAbs, kWheelCount> controllers;
  double maxIcySlip = 0.0;
  for (int ms = 0; ms < 6000 && !vehicle.stopped(); ++ms) {
    if (ms % 5 == 0) {
      for (std::size_t w = 0; w < kWheelCount; ++w) {
        vehicle.setBrakeTorque(w, controllers[w].update(900.0, vehicle.slip(w)));
      }
    }
    vehicle.step(0.001);
    if (vehicle.speedMps() > 2.0) {
      maxIcySlip = std::max(maxIcySlip, vehicle.slip(FrontRight));
    }
  }
  EXPECT_TRUE(vehicle.stopped());
  EXPECT_LT(maxIcySlip, 0.75);  // the icy wheel is regulated, not locked
}

TEST(Vehicle, IceLengthensTheStop) {
  auto distance = [](double iceScale) {
    VehicleParams params;
    params.frictionScale = {1.0, iceScale, 1.0, iceScale};
    Vehicle vehicle{params};
    vehicle.reset(27.8);
    std::array<WheelAbs, kWheelCount> controllers;
    for (int ms = 0; ms < 30000 && !vehicle.stopped(); ++ms) {
      if (ms % 5 == 0) {
        for (std::size_t w = 0; w < kWheelCount; ++w) {
          vehicle.setBrakeTorque(w, controllers[w].update(1200.0, vehicle.slip(w)));
        }
      }
      vehicle.step(0.001);
    }
    return vehicle.distanceM();
  };
  EXPECT_GT(distance(0.25), distance(1.0) * 1.2);
}

// --- control algorithms ---

TEST(Distribution, FrontRearSplit) {
  // The CU law the closed loop and the cu guest program run, in q8.8.
  const auto torques = distributeFixedPoint(256);
  EXPECT_EQ(torques[FrontLeft], torques[FrontRight]);
  EXPECT_EQ(torques[RearLeft], torques[RearRight]);
  // 60/40 split -> front/rear torque ratio 1.5.
  EXPECT_EQ(torques[FrontLeft] * 2, torques[RearLeft] * 3);
  // Total force at full pedal: sum(torque) / 0.30 m wheel radius = 18 kN.
  const double totalTorqueNm = (torques[0] + torques[1] + torques[2] + torques[3]) / 256.0;
  EXPECT_NEAR(totalTorqueNm / 0.30, 18000.0, 1e-9);
}

TEST(Distribution, PedalScalesLinearlyAndClamps) {
  const auto half = distributeFixedPoint(128);
  const auto full = distributeFixedPoint(256);
  EXPECT_EQ(half[FrontLeft] * 2, full[FrontLeft]);
  EXPECT_EQ(distributeFixedPoint(435), full);  // 1.7 x full pedal
  EXPECT_EQ(distributeFixedPoint(0)[RearLeft], 0);
}

TEST(SlipController, PassesThroughBelowTargetSlip) {
  WheelAbs controller;
  EXPECT_DOUBLE_EQ(controller.update(800.0, 0.05), 800.0);
  EXPECT_DOUBLE_EQ(controller.update(800.0, 0.10), 800.0);
  EXPECT_EQ(controller.limitQ8, -1);  // no anti-lock limit armed
}

TEST(SlipController, ReducesTorqueAboveTargetSlip) {
  WheelAbs controller;
  const double first = controller.update(800.0, 0.20);
  EXPECT_LT(first, 800.0);
  EXPECT_EQ(controller.limitQ8, std::lround(first * 256.0));  // the limit is the torque
  const double second = controller.update(800.0, 0.20);
  EXPECT_LT(second, first);  // keeps reducing while slip stays high
}

TEST(SlipController, DumpsHardAboveReleaseSlip) {
  WheelAbs reduceOnce;
  WheelAbs dumpHard;
  const double gentle = reduceOnce.update(800.0, 0.20);
  const double hard = dumpHard.update(800.0, 0.30);
  EXPECT_LT(hard, gentle);
}

TEST(SlipController, RecoversWhenSlipNormalises) {
  WheelAbs controller;
  double torque = controller.update(800.0, 0.3);
  const double reduced = torque;
  for (int i = 0; i < 50; ++i) torque = controller.update(800.0, 0.05);
  EXPECT_GT(torque, reduced);
  EXPECT_DOUBLE_EQ(torque, 800.0);  // limit fully released eventually
  EXPECT_EQ(controller.limitQ8, -1);
}

TEST(SlipController, RegulatesSlipInClosedLoop) {
  // With ABS the wheel must not lock even under a huge torque request.
  Vehicle vehicle;
  vehicle.reset(27.8);
  std::array<WheelAbs, kWheelCount> controllers;
  double maxSlipSeen = 0.0;
  for (int ms = 0; ms < 4000 && !vehicle.stopped(); ++ms) {
    if (ms % 5 == 0) {  // 5 ms control period
      for (std::size_t w = 0; w < kWheelCount; ++w) {
        vehicle.setBrakeTorque(w, controllers[w].update(2500.0, vehicle.slip(w)));
      }
    }
    vehicle.step(0.001);
    if (vehicle.speedMps() > 3.0) {
      for (std::size_t w = 0; w < kWheelCount; ++w)
        maxSlipSeen = std::max(maxSlipSeen, vehicle.slip(w));
    }
  }
  EXPECT_TRUE(vehicle.stopped());
  EXPECT_LT(maxSlipSeen, 0.6);  // transiently high, but never sustained lock
  EXPECT_LT(vehicle.distanceM(), 70.0);
}

TEST(FixedPointControl, NeverNegativeTorque) {
  std::int32_t limit = -1;
  std::int32_t torque = 100 * 256;
  for (int i = 0; i < 100; ++i) {
    torque = wheelControlFixedPoint(100 * 256, 80, limit, &limit);
    EXPECT_GE(torque, 0);
  }
}

}  // namespace
}  // namespace nlft::bbw
