// The benchmark's four exploration workloads. README.md records why each
// workload exists and which layer it stresses.
//
// One round of a workload is a fixed set of DFS probes: each probe is a
// fresh Mcfs exploring from the empty file systems under its own explorer
// seed, capped at a fixed number of operations. How much a single DFS
// covers depends strongly on its seed (its first choices decide which
// subtree the budget is spent in), so a round sums many short probes
// instead of running one long search: the round's counts then vary
// little from one benchmark seed to the next, and still repeat exactly
// for the same seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcfs/harness.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Seed used when the command line gives none. README.md lists the
  // held-out seed kept for confirming a later claim.
  std::uint64_t default_seed = 0;
  // DFS probes per round.
  std::size_t probes = 0;
  // The config of one probe, given its explorer seed.
  mcfs::core::McfsConfig (*config)(std::uint64_t explorer_seed) = nullptr;
};

// nullptr when no workload has this name.
const Workload* FindWorkload(const std::string& name);

// Explorer seed of probe `probe` in a round for benchmark seed `seed`:
// probe 0 uses the seed itself, the others a SplitMix64 sequence from
// it, so two benchmark seeds share no probe.
std::uint64_t ProbeSeed(std::uint64_t seed, std::size_t probe);

}  // namespace perfbench
