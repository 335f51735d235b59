// The in-app path: the mini-Amber PME skeleton on two simulated ranks,
// monitored through the shipped wrappers (ipm_cuda / ipm_mpi / ipm_blas),
// core and ipm_live, streaming to the in-process daemon.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "fleet.hpp"

namespace bench {

/// Fresh simulator state for a two-node cluster (part of set-up).
void amber_prepare();

/// Back-to-back monitored and unmonitored runs of one seeded input until
/// `deadline`, each monitored run verified against the daemon's JSONL.
/// Sets app_wall_s, report_s and monitor_ns_per_event.
void run_amber_window(DaemonHost& host, std::uint64_t seed, double deadline,
                      RunResult& res);

/// Configuration ladder (traced runs): off -> profile -> +kernel timing ->
/// +host idle -> +live in-process collector -> +socket to the daemon ->
/// +trace.  Each rung's increment is that layer's cost.
void run_ladder(DaemonHost& host, std::uint64_t seed, RunResult& res);

}  // namespace bench
