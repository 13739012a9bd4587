// Replicated log on top of binary agreement — the classic application
// the paper's introduction motivates ("practical use-cases of BA in
// large-scale systems").
//
// Each log slot holds one client command that replicas either commit (1)
// or skip (0). Replicas receive the command proposal unreliably — some
// see it, some don't — and agree per slot on the bit "I have the
// command". All slots run *concurrently* over one network and one
// trusted setup (the paper's §3 point: the PKI is set up once for any
// number of BA instances). The decided log is identical at every correct
// replica; a few replicas are Byzantine-silent throughout. Every slot
// arms the round-skip fallback, so a slot whose round-0 committee draws
// too few live members re-draws in round 1 instead of stalling (at the
// defaults, slots 6 and 7 decide that way).
//
//   ./replicated_log [--n 64] [--slots 8] [--seed 1] [--loss 0.3]
#include <iomanip>
#include <iostream>
#include <vector>

#include "common/args.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/session.h"

using namespace coincidence;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("n", 64));
  const auto slots = static_cast<std::size_t>(args.get_int("slots", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const double loss = args.get_double("loss", 0.3);

  std::cout << "replicated log: " << slots << " concurrent slots over " << n
            << " replicas, command propagation loss " << loss << "\n\n";

  Rng rng(seed);
  std::vector<std::vector<ba::Value>> inputs(slots,
                                             std::vector<ba::Value>(n, 0));
  std::vector<std::size_t> holders(slots, 0);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    // The client's command reaches each replica with probability 1-loss.
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.next_bool(loss)) {
        inputs[slot][i] = ba::kOne;
        ++holders[slot];
      }
    }
  }

  core::Session session(core::Env::make_relaxed(n, seed));
  core::SessionReport report =
      session.run_concurrent_slots(inputs, seed, /*silent_faults=*/2);

  std::vector<std::string> committed;
  Table table({"slot", "command", "replicas holding it", "decision",
               "rounds"});
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const core::SlotReport& sr = report.slots[slot];
    std::string command = "cmd-" + std::to_string(slot);
    std::string decision = "stalled";
    if (sr.all_correct_decided) {
      decision = *sr.decision == 1 ? "COMMIT" : "skip";
      if (*sr.decision == 1) committed.push_back(command);
    }
    table.add_row({std::to_string(slot), command,
                   std::to_string(holders[slot]) + "/" + std::to_string(n),
                   decision, std::to_string(sr.max_decided_round)});
  }

  table.print(std::cout);
  std::cout << "\ntotal words across all concurrent slots: "
            << Table::count(report.correct_words) << "\n";
  std::cout << "\nfinal log at every correct replica:";
  if (committed.empty()) std::cout << " (empty)";
  for (const auto& c : committed) std::cout << ' ' << c;
  std::cout << "\n\nBA validity in action: slots whose command reached "
               "every replica always commit;\nslots nobody saw are always "
               "skipped; mixed slots agree on one of the two.\n";
  return 0;
}
