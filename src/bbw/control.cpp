#include "bbw/control.hpp"

namespace nlft::bbw {

std::int32_t wheelControlFixedPoint(std::int32_t requestedTorqueQ8, std::int32_t slipQ8,
                                    std::int32_t currentLimitQ8, std::int32_t* newLimitQ8) {
  constexpr std::int32_t kTarget = 38;
  constexpr std::int32_t kRelease = 64;
  constexpr std::int32_t kReduce = 179;
  constexpr std::int32_t kRecover = 294;

  std::int32_t limit = currentLimitQ8;
  if (slipQ8 > kRelease) {
    if (limit < 0) limit = requestedTorqueQ8;
    limit = static_cast<std::int32_t>((static_cast<std::int64_t>(limit) * kReduce) >> 8);
    limit = static_cast<std::int32_t>((static_cast<std::int64_t>(limit) * kReduce) >> 8);
  } else if (slipQ8 > kTarget) {
    if (limit < 0) limit = requestedTorqueQ8;
    limit = static_cast<std::int32_t>((static_cast<std::int64_t>(limit) * kReduce) >> 8);
  } else if (limit >= 0) {
    limit = static_cast<std::int32_t>((static_cast<std::int64_t>(limit) * kRecover) >> 8);
    if (limit >= requestedTorqueQ8) limit = -1;
  }
  std::int32_t torque = requestedTorqueQ8;
  if (limit >= 0 && limit < torque) torque = limit;
  if (torque < 0) torque = 0;
  *newLimitQ8 = limit;
  return torque;
}

}  // namespace nlft::bbw
