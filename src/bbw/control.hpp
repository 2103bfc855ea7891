// Brake-by-wire wheel control.
//
// Each wheel node runs an ABS-style slip controller that caps the applied
// torque when the wheel approaches lock-up (the central unit's law, static
// front/rear proportioning of the pedal, is distributeFixedPoint in
// bbw/cu_task.hpp). It is a pure function of its inputs so that TEM replica
// determinism holds trivially.
#pragma once

#include <cstdint>

namespace nlft::bbw {

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
