// IoT CPU-centric benchmarks (paper sections VI-B/C, Figs. 7-9).
//
// The paper evaluates the memory hierarchy on "five IoT CPU-centric
// benchmarks" it does not name, a synthetic cache-stress benchmark it
// describes precisely, and Dhrystone. Our five (DESIGN.md section 1)
// span the memory-behaviour axis the figures explore:
//
//   crc32      - byte-stream + table lookups (streaming reads)
//   fir        - dense compute over a sliding window (host_fir_i32)
//   sort       - shell sort (strided, data-dependent accesses)
//   histogram  - streaming reads + scattered read-modify-writes
//   strsearch  - text scan with short inner loops (branchy)
//
// All run on the CVA6 ISS against the full memory hierarchy, so their
// L1/LLC/DRAM behaviour is real, not synthetic.
#pragma once

#include <vector>

#include "kernels/kernel.hpp"

namespace hulkv::kernels {

/// CRC-32 over `n` bytes. Args: a0=data, a1=crc table (256 u32),
/// a2=address for the resulting u32.
KernelProgram host_crc32(u32 n);

/// Shell sort of `n` int32 (same gap sequence as golden::shell_sort).
/// Args: a0=data.
KernelProgram host_shell_sort(u32 n);

/// 256-bin byte histogram over `n` bytes (bins zeroed by the program).
/// Args: a0=data, a1=bins (256 u32).
KernelProgram host_histogram(u32 n);

/// Count occurrences of an `m`-byte needle in an `n`-byte haystack.
/// Args: a0=haystack, a1=needle, a2=address for the resulting u32.
KernelProgram host_strsearch(u32 n, u32 m);

/// Dhrystone-style integer mix: string copy + compare + arithmetic +
/// calls over small buffers, `iters` iterations. Args: a0=buf1, a1=buf2
/// (>= 64 B each).
KernelProgram host_dhrystone_mix(u32 iters);

/// Fig. 7 synthetic cache-stress benchmark: `rounds` rounds of `count`
/// word reads with byte stride `stride` over a `count*stride`-byte
/// buffer. The footprint (count*stride) sweeps the access stream across
/// the L1 -> LLC -> DRAM capacity boundaries, producing a controllable
/// L1 miss ratio exactly as described in section VI-B. Args: a0=buffer.
KernelProgram host_stride_reads(u32 stride, u32 count, u32 rounds);

/// Fig. 7 companion with a *dialled* L1 miss ratio: of every 16 reads,
/// `miss_slots` walk a large thrashing window (one new cache line each,
/// always an L1 miss) and the rest hit a resident 2 kB window — the
/// paper's "reads can either be in the 0th way, causing either a miss or
/// a hit, or in a different cache way and hit". Both paths execute the
/// same instruction count, so timing differences are purely the memory
/// system's. `footprint` (power of two) sizes the thrash window.
/// Args: a0=resident 4 kB buffer, a1=thrash buffer.
KernelProgram host_mixed_reads(u32 miss_slots, u32 footprint, u32 count,
                               u32 rounds);

/// Pointer chase: `count` dependent loads through a pre-built cycle of
/// pointers (every load's address comes from the previous load), the
/// canonical measurement of load-to-use latency of a memory level.
/// The caller must have written the pointer ring (u64 absolute addresses)
/// beforehand. Args: a0 = address of the first pointer.
KernelProgram host_pointer_chase(u32 count);

/// The five IoT benchmarks above as one catalogue of ready-to-run
/// workloads, ids 0..4: crc32, fir (host_fir_i32, 32 taps), sort,
/// histogram, strsearch (8-byte needle). Fig. 8 and the serve daemon
/// run the same programs on the same data (fixed seed id + 1, inputs
/// from core::layout::kSharedBase); only the footprint differs.
inline constexpr u8 kNumIotWorkloads = 5;

/// Stable lowercase name of catalogue workload `id` ("crc32", ...).
const char* iot_workload_name(u8 id);

/// Footprint scale 1: 16 KiB crc32 input, 4096 fir samples, 4096 sort
/// elements, 24 KiB histogram and strsearch inputs (milliseconds of
/// simulation, the serve daemon's size). Every footprint grows
/// linearly with `scale`; Fig. 8 runs at 4, where the histogram input
/// (96 KiB) still fits the 128 kB LLC.
KernelProgram iot_program(u8 id, u32 scale);

/// A catalogue workload instantiated on a SoC.
struct IotWorkload {
  KernelProgram program;
  std::vector<u64> args;
};

/// Write workload `id`'s input data into `soc` and return its program
/// and argument registers. Deterministic: fixed sizes, fixed seeds.
/// Throws SimError on an unknown id.
IotWorkload setup_iot_workload(u8 id, u32 scale, core::HulkVSoc& soc);

}  // namespace hulkv::kernels
