#pragma once
// The host's speed, measured beside the requests.
//
// The shared 4-vCPU host this benchmark was built on changes speed by up to
// 2x in phases of seconds to minutes, for CPU work and page faults alike, so
// the same request's best time moved by 20-40% between runs.  A fixed kernel
// of both kinds of work, timed after every request, tracks that speed; the
// end-to-end times are scaled by kReferenceKernelMs / (the kernel's best time
// in the run), which expresses them at the speed of the reference host.

namespace perfbench {

/// The kernel's best time on the reference host (4 vCPUs, ~2.6 GHz class).
inline constexpr double kReferenceKernelMs = 5.0;

/// Runs the kernel once: xorshift updates over a 1 MiB buffer, then 4 MiB
/// of fresh pages touched and unmapped.  Returns its wall time in ms.
double host_kernel_ms();

}  // namespace perfbench
