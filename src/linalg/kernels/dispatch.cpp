#include "linalg/kernels/dispatch.hpp"

#include <cstdlib>
#include <string>

#include "support/error.hpp"
#include "support/logging.hpp"
#include "telemetry/metrics.hpp"

namespace senkf::linalg::kernels {

namespace {

// Records the resolved table in the registry.  Called exactly once per
// process, from active_kernels()'s initializer: the
// kernels.dispatch.<name> counter answers "which code path ran?" without
// a debug log, and the kernels.active gauge (vector width in doubles)
// flows into the run report.
void note_dispatch(const KernelTable& table) {
  auto& registry = telemetry::Registry::global();
  registry.counter(std::string("kernels.dispatch.") + table.name).add(1);
  registry.gauge("kernels.active").set(static_cast<double>(table.width));
}

// A requested ISA that this binary/CPU can't run degrades to scalar (not
// to the next-widest ISA): predictable, and what the CI fallback
// assertions pin down.
const KernelTable& fallback_to_scalar(const char* want, const char* why) {
  SENKF_LOG_WARN("SENKF_KERNEL=", want, " requested but ", why,
                 "; falling back to scalar kernels");
  return scalar_kernels();
}

}  // namespace

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

bool cpu_supports_neon() {
#if defined(__aarch64__)
  return true;  // NEON is part of the aarch64 base ISA
#else
  return false;
#endif
}

const KernelTable& resolve_kernels(const char* requested) {
  const std::string want = requested == nullptr ? "" : requested;
  const KernelTable* avx512 = avx512_kernels();
  const KernelTable* avx2 = avx2_kernels();
  const KernelTable* neon = neon_kernels();
  const bool avx512_usable = avx512 != nullptr && cpu_supports_avx512();
  const bool avx2_usable = avx2 != nullptr && cpu_supports_avx2();
  const bool neon_usable = neon != nullptr && cpu_supports_neon();

  if (want == "scalar") return scalar_kernels();
  if (want == "avx512") {
    if (avx512_usable) return *avx512;
    return fallback_to_scalar("avx512",
                              avx512 == nullptr
                                  ? "this build has no AVX-512 kernels"
                                  : "the CPU lacks AVX-512 F/DQ");
  }
  if (want == "avx2") {
    if (avx2_usable) return *avx2;
    return fallback_to_scalar("avx2",
                              avx2 == nullptr
                                  ? "this build has no AVX2 kernels"
                                  : "the CPU lacks AVX2/FMA");
  }
  if (want == "neon") {
    if (neon_usable) return *neon;
    return fallback_to_scalar("neon", "this build has no NEON kernels");
  }
  if (!want.empty() && want != "auto") {
    throw InvalidArgument("SENKF_KERNEL: unknown kernel set '" + want +
                          "' (expected scalar, avx2, avx512, neon or auto)");
  }
  if (avx512_usable) return *avx512;
  if (avx2_usable) return *avx2;
  if (neon_usable) return *neon;
  return scalar_kernels();
}

const KernelTable& active_kernels() {
  static const KernelTable& table = []() -> const KernelTable& {
    const KernelTable& resolved = resolve_kernels(std::getenv("SENKF_KERNEL"));
    note_dispatch(resolved);
    return resolved;
  }();
  return table;
}

}  // namespace senkf::linalg::kernels
