// One line holding what an agreement run decided and what it cost: the
// form in which tests pin a run's outcome to a string captured on a
// reference tree.
#pragma once

#include <sstream>
#include <string>

#include "core/runner.h"

namespace coincidence::core {

/// Decision, max decided round, correct words, messages, duration (the
/// longest causal chain) and the per-kind word split of `r`.
inline std::string run_outcome(const RunReport& r) {
  std::ostringstream os;
  os << "decided=" << r.all_correct_decided << " decision="
     << (r.decision ? std::to_string(*r.decision) : "-")
     << " round=" << r.max_decided_round << " words=" << r.correct_words
     << " messages=" << r.messages << " duration=" << r.duration << " tags=";
  for (const auto& [tag, words] : r.words_by_tag)
    os << tag << ":" << words << ";";
  return os.str();
}

}  // namespace coincidence::core
