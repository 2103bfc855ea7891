// Brake-by-wire control algorithms.
//
// The central unit turns the pedal position into per-wheel brake torque
// requests (static front/rear proportioning); each wheel node runs an
// ABS-style slip controller that caps the applied torque when the wheel
// approaches lock-up. Both are pure functions of their inputs so that TEM
// replica determinism holds trivially.
#pragma once

#include <array>
#include <cstdint>

#include "bbw/vehicle.hpp"

namespace nlft::bbw {

struct CentralUnitConfig {
  double maxTotalForceN = 18000.0;  ///< total brake force at full pedal
  double frontShare = 0.6;          ///< front axle share of the total force
  double wheelRadiusM = 0.30;
};

/// Pedal position [0,1] -> per-wheel brake torque request (N m).
[[nodiscard]] std::array<double, kWheelCount> distributeBrakeForce(
    const CentralUnitConfig& config, double pedal);

/// One wheel node's ABS slip-control law in q8.8 fixed point: the job every
/// wheel node runs (BbwSystemSim computes it, the interpreted-ISA wheel task
/// encodes it). Slip above 64/256 (0.25) cuts the torque limit by two
/// reduction steps, slip above 38/256 (~0.15, near the Burckhardt friction
/// peak) by one; otherwise an active limit recovers and is released once it
/// reaches the request. A step multiplies by 179/256 (~0.70) to reduce and by
/// 294/256 (~1.15) to recover. A negative limit means no anti-lock limit is
/// active; the updated limit (the task's state data) goes to `newLimitQ8`.
[[nodiscard]] std::int32_t wheelControlFixedPoint(std::int32_t requestedTorqueQ8,
                                                  std::int32_t slipQ8,
                                                  std::int32_t currentLimitQ8,
                                                  std::int32_t* newLimitQ8);

}  // namespace nlft::bbw
