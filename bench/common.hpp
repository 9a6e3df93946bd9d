// The one switch the structural bench binaries share: reduced scale by
// default, paper scale with PF_BENCH_FULL=1. Simulation sweeps are not
// benches; they are entries of suites/paper_figs.json run with
// `pf_sim suite`.
#pragma once

#include <cstdlib>

namespace pf::bench {

inline bool full_scale() {
  const char* env = std::getenv("PF_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

}  // namespace pf::bench
