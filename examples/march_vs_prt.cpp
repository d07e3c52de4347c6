// Head-to-head: pseudo-ring testing vs the March family.
//
// Runs a fault-simulation campaign over the classical and full fault
// universes and prints coverage and operation cost per algorithm —
// the practical trade-off the paper's §3 argues (O(3n) per iteration,
// 3 iterations for the targeted universe).
//
//   $ ./march_vs_prt [n]
#include <cstdio>

#include "analysis/coverage.hpp"
#include "analysis/fault_sim.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "parse_args.hpp"

int main(int argc, char** argv) {
  using namespace prt;
  // The PRT schemes need n > 2 (k = 2 initial cells plus a ring).
  unsigned long n_arg = 48;
  if (argc > 2 || (argc == 2 && !examples::parse_unsigned(
                                    argv[1], 3, examples::kMaxCells, n_arg))) {
    std::fprintf(stderr, "usage: %s [n]   (3 <= n <= %lu)\n", argv[0],
                 examples::kMaxCells);
    return 2;
  }
  const auto n = static_cast<mem::Addr>(n_arg);

  // Universe: every single-cell fault, adjacent coupling, decoder
  // faults — the realistic local-defect model.
  std::vector<mem::Fault> universe = mem::single_cell_universe(n, 1, true);
  for (mem::Addr c = 0; c + 1 < n; ++c) {
    for (auto [a, v] :
         {std::pair<mem::Addr, mem::Addr>{c, c + 1}, {c + 1, c}}) {
      universe.push_back(mem::Fault::cf_in({v, 0}, {a, 0}));
      universe.push_back(mem::Fault::cf_st({v, 0}, {a, 0}, 1, 0));
      universe.push_back(mem::Fault::cf_id({v, 0}, {a, 0}, true, 1));
    }
    universe.push_back(mem::Fault::bridge({c, 0}, {c + 1, 0}, true));
  }
  for (mem::Addr a = 0; a < n; ++a) {
    universe.push_back(mem::Fault::af_no_access(a));
    universe.push_back(
        mem::Fault::af_wrong_access(a, a + 1 < n ? a + 1 : n - 2));
  }
  std::printf("universe: %zu faults over n = %u cells\n\n", universe.size(),
              n);

  analysis::CampaignOptions opt;
  opt.n = n;

  struct Entry {
    std::string name;
    analysis::TestAlgorithm algo;
    std::uint64_t ops;
  };
  std::vector<Entry> entries;
  entries.push_back({"PRT-3 (9n)",
                     analysis::prt_algorithm(core::standard_scheme_bom(n)),
                     core::prt_ops(n, 2, 3)});
  entries.push_back(
      {"PRT-ext",
       analysis::prt_algorithm(core::extended_scheme_bom(n)),
       0});  // ops filled from a probe run below
  for (const auto& m :
       {march::mats_plus(), march::march_y(), march::march_c_minus(),
        march::march_ss()}) {
    entries.push_back({m.name + " (" + std::to_string(m.ops_per_cell()) +
                           "n)",
                       analysis::march_algorithm(m), m.total_ops(n)});
  }

  // Probe the extended scheme's op count on a healthy memory.
  {
    mem::SimRam probe(n, 1);
    entries[1].ops = core::run_prt(probe, core::extended_scheme_bom(n)).ops();
  }

  std::vector<analysis::NamedResult> rows;
  Table cost({"algorithm", "ops", "ops/cell"});
  cost.set_align(0, Align::kLeft);
  for (const Entry& e : entries) {
    rows.push_back({e.name, analysis::run_campaign(universe, e.algo, opt)});
    cost.add(e.name, e.ops,
             format_fixed(static_cast<double>(e.ops) / n, 1));
  }

  std::printf("%s\n", analysis::coverage_table(rows).str().c_str());
  std::printf("%s\n", cost.str().c_str());
  return 0;
}
