// Facts about the host a result was measured on.
#pragma once

#include <string>

#include "report.hpp"

namespace hemobench {

/// CPUs this process may actually use: the affinity mask, further capped
/// by a cgroup CPU quota (cpu.max, or cfs_quota_us / cfs_period_us), and
/// never hardware_concurrency(), which counts CPUs the process cannot run
/// on.
[[nodiscard]] int effective_cores();

/// Last-level cache size the host reports, in bytes (0 when unknown).
[[nodiscard]] long long llc_bytes();

/// Peak resident set size of this process so far, in MB (2^20 bytes).
[[nodiscard]] double peak_rss_mb();

/// Effective cores, CPU quota, LLC, compiler and the SIMD backend the
/// kernels resolve to.
[[nodiscard]] JsonObject host_facts();

}  // namespace hemobench
