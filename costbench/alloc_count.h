#pragma once

#include <cstdint>

namespace costbench {

/// Global operator new calls made so far by the calling thread. The count
/// comes from the replacement allocation functions in alloc_count.cpp,
/// which are linked into the benchmark binary only.
std::uint64_t allocations();

}  // namespace costbench
