//===- obs/Telemetry.cpp - Telemetry kill switch --------------------------===//

#include "obs/Telemetry.h"

namespace dc::obs {

std::atomic<bool> Telemetry::Runtime{false};

} // namespace dc::obs
