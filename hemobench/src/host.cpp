#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "lbm/simd.hpp"

namespace hemobench {

namespace {

/// CPU quota of this process's cgroup in CPUs, or 0 when unlimited.
double cgroup_cpu_quota() {
  // cgroup v2: "<quota> <period>" or "max <period>".
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0.0;
  if (v2 >> quota >> period) {
    if (quota == "max" || period <= 0.0) return 0.0;
    return std::stod(quota) / period;
  }
  // cgroup v1: quota is -1 when unlimited.
  std::ifstream q1("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p1("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double q = 0.0;
  if (q1 >> q && p1 >> period && q > 0.0 && period > 0.0) return q / period;
  return 0.0;
}

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// Size of the highest-level data/unified cache of cpu0 from sysfs, e.g.
/// "300M" or "49152K".
long long sysfs_llc_bytes() {
  long long best = 0;
  int best_level = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    if (read_line(dir + "type") == "Instruction") continue;
    const std::string size = read_line(dir + "size");
    if (size.empty()) continue;
    long long bytes = std::stoll(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (std::stoi(level) >= best_level) {
      best_level = std::stoi(level);
      best = bytes;
    }
  }
  return best;
}

}  // namespace

int effective_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cores = sched_getaffinity(0, sizeof set, &set) == 0
                  ? CPU_COUNT(&set)
                  : static_cast<int>(std::thread::hardware_concurrency());
  const double quota = cgroup_cpu_quota();
  if (quota > 0.0) {
    cores = std::min(cores, std::max(1, static_cast<int>(std::ceil(quota))));
  }
  return std::max(cores, 1);
}

long long llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return l3;
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0) return std::max<long long>(l2, sysfs_llc_bytes());
#endif
  return sysfs_llc_bytes();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

JsonObject host_facts() {
  namespace simd = hemo::lbm::simd;
  const double quota = cgroup_cpu_quota();
  return JsonObject()
      .add("effective_cores", effective_cores())
      .add("cgroup_cpu_quota", quota > 0.0 ? std::to_string(quota) : "none")
      .add("hardware_concurrency",
           static_cast<int>(std::thread::hardware_concurrency()))
      .add("llc_bytes", llc_bytes())
      .add("simd_backend",
           to_string(simd::resolve_backend(hemo::lbm::Backend::kAuto)))
      .add("compiler", __VERSION__);
}

}  // namespace hemobench
