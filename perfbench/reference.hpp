#pragma once

#include <cstdint>

namespace perfbench {

/// One fixed unit of reference work, independent of the library under
/// test: two floods of a fixed random graph on 4,096 nodes through a
/// binary-heap event queue, ~5 ms on an unloaded host. Its pages (under
/// 0.4 MB, mapped afresh on every call) fit in the core's L2 cache, so a
/// sample evicts little of the trials' data.
/// Returns a checksum so the work cannot be optimized away.
std::uint64_t reference_unit();

}  // namespace perfbench
