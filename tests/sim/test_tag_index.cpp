// sim::tag_index: the one parser of "<prefix><k>[/<rest>]" tags, read
// by every protocol round, candidate and slot router. The table holds
// every honest shape those callers see and the Byzantine shapes that the
// hand-rolled parsers it replaced disagreed on.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/tag_table.h"

namespace coincidence::sim {
namespace {

struct Case {
  const char* what;
  std::string_view tag;
  std::string_view prefix;
  std::optional<std::uint64_t> index;
  std::string_view rest;  // checked only when index is set
};

constexpr std::optional<std::uint64_t> kNone = std::nullopt;

const Case kCases[] = {
    // Honest shapes, one row per caller.
    {"BenOr report", "benor/3/R", "benor/", 3, "R"},
    {"BenOr proposal", "benor/0/P", "benor/", 0, "P"},
    {"Bracha step RBC", "bracha/5/2/echo", "bracha/", 5, "2/echo"},
    {"Mmr bval", "mmr/0/bval", "mmr/", 0, "bval"},
    {"Mmr coin", "mmr/12/coin/first", "mmr/", 12, "coin/first"},
    {"BaWhp approver", "ba/7/a1/init", "ba/", 7, "a1/init"},
    {"BaWhp coin", "ba/10/coin/second", "ba/", 10, "coin/second"},
    {"BaWhp skip", "ba/3/skip", "ba/", 3, "skip"},
    {"BaWhp certificate", "ba/decided", "ba/", kNone, ""},
    {"MvBa candidate", "slot0/c4/0/a1/echo", "slot0/c", 4, "0/a1/echo"},
    {"MvBa own RBC", "slot0/rbc/7/echo", "slot0/c", kNone, ""},
    {"log slot", "slot12/c0/1/coin/first", "slot", 12, "c0/1/coin/first"},
    {"log slot RBC", "slot3/rbc/0/ready", "slot", 3, "rbc/0/ready"},
    {"Session slot", "slot10/2/a2/ok", "slot", 10, "2/a2/ok"},
    {"Session certificate", "slot1/decided", "slot", 1, "decided"},
    {"index ends the tag", "slot7", "slot", 7, ""},
    {"largest u64", "slot18446744073709551615/x", "slot",
     UINT64_C(18446744073709551615), "x"},
    // Byzantine shapes.
    {"leading zero", "slot01/c0/0/a1/init", "slot", kNone, ""},
    {"zero-padded zero", "slot00", "slot", kNone, ""},
    {"20-digit overflow", "slot18446744073709551616/x", "slot", kNone, ""},
    {"2^32 alias of candidate 0", "slot0/c4294967296/0/a1/init", "slot0/c",
     UINT64_C(4294967296), "0/a1/init"},
    {"bad separator after the prefix", "brachaX5/1/2", "bracha/", kNone, ""},
    {"bad separator after the index", "bracha/5x/1", "bracha/", kNone, ""},
    {"empty index", "ba//skip", "ba/", kNone, ""},
    {"empty index at the end", "slot/c", "slot", kNone, ""},
    {"prefix alone", "slot", "slot", kNone, ""},
    {"prefix alone with separator", "ba/", "ba/", kNone, ""},
    {"sign", "slot+5/x", "slot", kNone, ""},
    {"negative", "slot-5/x", "slot", kNone, ""},
    {"foreign prefix", "mvba/c0", "slot", kNone, ""},
    {"empty tag", "", "slot", kNone, ""},
};

TEST(TagIndex, ParsesEveryHonestShapeAndRejectsByzantineOnes) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.what);
    std::string_view rest = "untouched";
    const std::optional<std::uint64_t> k = tag_index(c.tag, c.prefix, &rest);
    EXPECT_EQ(k, c.index);
    if (c.index) {
      EXPECT_EQ(rest, c.rest);
    } else {
      EXPECT_EQ(rest, "untouched");  // failure leaves *rest alone
    }
    EXPECT_EQ(tag_index(c.tag, c.prefix), c.index);  // rest is optional
  }
}

}  // namespace
}  // namespace coincidence::sim
