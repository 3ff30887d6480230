#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/md5.h"
#include "util/small_vec.h"
#include "util/symbol.h"
#include "util/strings.h"
#include "util/units.h"

namespace rv {
namespace {

using util::Rng;

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(RV_CHECK(1 + 1 == 2)); }

TEST(Check, ThrowsOnFalse) {
  EXPECT_THROW(RV_CHECK(false) << "context", util::CheckError);
}

TEST(Check, ComparisonMacros) {
  EXPECT_NO_THROW(RV_CHECK_EQ(2, 2));
  EXPECT_THROW(RV_CHECK_LT(3, 2), util::CheckError);
  EXPECT_THROW(RV_CHECK_GE(1, 2), util::CheckError);
}

TEST(Units, Conversions) {
  EXPECT_EQ(sec(2), 2'000'000);
  EXPECT_EQ(msec(3), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_msec(msec(7)), 7.0);
  EXPECT_DOUBLE_EQ(kbps(56.0), 56'000.0);
  EXPECT_EQ(seconds_to_sim(1.5), 1'500'000);
}

TEST(Units, TransmissionTimeRoundsUp) {
  // 1000 bytes at 1 Mbps = exactly 8000 usec.
  EXPECT_EQ(transmission_time(1000, mbps(1)), 8000);
  // 1 byte at 1 Gbps < 1 usec, rounds to 1.
  EXPECT_EQ(transmission_time(1, 1e9), 1);
  EXPECT_EQ(transmission_time(0, mbps(1)), 0);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every value in [-3, 3] appears
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40'000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(19);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), util::CheckError);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next_u64() == c2.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkByLabelDeterministic) {
  Rng a(29);
  Rng b(29);
  Rng fa = a.fork("clip-7");
  Rng fb = b.fork("clip-7");
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Strings, Split) {
  const auto parts = util::split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitFirst) {
  const auto [k, v] = util::split_first("Transport: RDT/UDP", ':');
  EXPECT_EQ(k, "Transport");
  EXPECT_EQ(util::trim(v), "RDT/UDP");
  const auto [k2, v2] = util::split_first("noseparator", ':');
  EXPECT_EQ(k2, "noseparator");
  EXPECT_EQ(v2, "");
}

TEST(Strings, TrimAndLower) {
  EXPECT_EQ(util::trim("  x y \t\n"), "x y");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::to_lower("AbC"), "abc");
  EXPECT_TRUE(util::iequals("CSeq", "cseq"));
  EXPECT_FALSE(util::iequals("CSeq", "cse"));
}

TEST(Strings, StrCatAndFormat) {
  EXPECT_EQ(util::str_cat("a=", 1, ", b=", 2.5), "a=1, b=2.5");
  EXPECT_EQ(util::format_double(3.14159, 2), "3.14");
}

TEST(Strings, StableHashIsStable) {
  EXPECT_EQ(util::stable_hash("abc"), util::stable_hash("abc"));
  EXPECT_NE(util::stable_hash("abc"), util::stable_hash("abd"));
}

TEST(Arena, BumpsAlignsAndGrowsOnDemand) {
  util::Arena arena;
  EXPECT_EQ(arena.slab_count(), 0u);
  // First allocation takes the grow path (regression: the empty arena's
  // slab index must land on the slab it just created).
  auto* a = static_cast<unsigned char*>(arena.allocate(24, 8));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.slab_count(), 1u);
  a[0] = 1;
  a[23] = 2;
  auto* b = arena.allocate(40, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  EXPECT_NE(a, b);

  // Fill past one slab: more slabs appear, every pointer stays writable.
  std::vector<void*> blocks;
  for (int i = 0; i < 100; ++i) blocks.push_back(arena.allocate(1024, 8));
  EXPECT_GE(arena.slab_count(), 2u);
  for (void* p : blocks) *static_cast<unsigned char*>(p) = 0xab;
}

TEST(Arena, OversizedAllocationGetsDedicatedSlab) {
  util::Arena arena;
  const std::size_t big = util::Arena::kChunkBytes * 3;
  auto* p = static_cast<unsigned char*>(arena.allocate(big, 8));
  ASSERT_NE(p, nullptr);
  p[0] = 1;
  p[big - 1] = 2;  // whole range writable
  // A normal allocation afterwards still works.
  EXPECT_NE(arena.allocate(64, 8), nullptr);
}

TEST(Arena, ResetRewindsAndReusesSlabs) {
  util::Arena arena;
  for (int i = 0; i < 200; ++i) arena.allocate(512, 8);
  const std::size_t slabs = arena.slab_count();
  EXPECT_GE(slabs, 2u);
  // The same allocation pattern replayed after reset must fit in the
  // retained slabs — steady state allocates nothing new.
  for (int round = 0; round < 3; ++round) {
    arena.reset();
    void* first = arena.allocate(512, 8);
    for (int i = 1; i < 200; ++i) arena.allocate(512, 8);
    EXPECT_EQ(arena.slab_count(), slabs) << "round " << round;
    // Rewind really rewinds: the first block lands at the same address.
    arena.reset();
    EXPECT_EQ(arena.allocate(512, 8), first);
    for (int i = 1; i < 200; ++i) arena.allocate(512, 8);
  }
}

TEST(ArenaScope, RoutesArenaMakeSharedAndRestoresOnExit) {
  EXPECT_EQ(util::ArenaScope::current(), nullptr);
  // No scope: plain heap shared_ptr, usable as ever.
  auto heap_ptr = util::arena_make_shared<int>(7);
  EXPECT_EQ(*heap_ptr, 7);

  util::Arena arena;
  std::shared_ptr<std::vector<int>> survivor;
  {
    util::ArenaScope scope(&arena);
    EXPECT_EQ(util::ArenaScope::current(), &arena);
    {
      util::Arena nested;
      util::ArenaScope inner(&nested);
      EXPECT_EQ(util::ArenaScope::current(), &nested);
      auto p = util::arena_make_shared<int>(1);
      EXPECT_EQ(*p, 1);
      EXPECT_GE(nested.slab_count(), 1u);
    }
    EXPECT_EQ(util::ArenaScope::current(), &arena);  // nesting restored

    survivor = util::arena_make_shared<std::vector<int>>(100, 42);
    EXPECT_GE(arena.slab_count(), 1u);
  }
  EXPECT_EQ(util::ArenaScope::current(), nullptr);
  // The object outlives the scope (its memory lives until arena.reset());
  // releasing the last reference is a no-op deallocate, not a heap free.
  EXPECT_EQ(survivor->size(), 100u);
  EXPECT_EQ(survivor->at(99), 42);
  survivor.reset();
}

}  // namespace
}  // namespace rv

// --- Args ------------------------------------------------------------------

#include "util/args.h"

namespace rv {
namespace {

util::Args make_args(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return util::Args(static_cast<int>(v.size()), v.data());
}

TEST(Args, KeyValueForms) {
  const auto args =
      make_args({"prog", "--scale", "0.5", "--seed=42", "--verbose"});
  EXPECT_EQ(args.program(), "prog");
  EXPECT_EQ(args.get("scale"), "0.5");
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get_int("seed", 0), 42);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
}

TEST(Args, PositionalArguments) {
  const auto args = make_args({"prog", "fig", "11", "--scale", "0.1"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "fig");
  EXPECT_EQ(args.positional()[1], "11");
}

TEST(Args, Fallbacks) {
  const auto args = make_args({"prog"});
  EXPECT_EQ(args.get_or("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_FALSE(args.get("missing").has_value());
}

TEST(Args, FlagFollowedByFlag) {
  const auto args = make_args({"prog", "--live", "--watch", "30"});
  EXPECT_TRUE(args.has("live"));
  EXPECT_EQ(args.get("live"), "");  // bare flag, no value swallowed
  EXPECT_EQ(args.get_int("watch", 0), 30);
}

TEST(Args, ValueContainingEquals) {
  const auto args = make_args({"prog", "--filter=key=value"});
  EXPECT_EQ(args.get("filter"), "key=value");
}

TEST(Args, ValidNumericsLeaveErrorsEmpty) {
  const auto args =
      make_args({"prog", "--scale=0.25", "--seed=2001", "--watch", "60"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.25);
  EXPECT_EQ(args.get_int("seed", 0), 2001);
  EXPECT_EQ(args.get_int("watch", 0), 60);
  EXPECT_TRUE(args.errors().empty());
}

TEST(Args, MalformedIntFallsBackAndRecordsError) {
  const auto args = make_args({"prog", "--seed=20o1"});
  // The typo'd value must not be silently truncated to 20.
  EXPECT_EQ(args.get_int("seed", 7), 7);
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("--seed"), std::string::npos);
  EXPECT_NE(args.errors()[0].find("20o1"), std::string::npos);
}

TEST(Args, MalformedDoubleFallsBackAndRecordsError) {
  const auto args = make_args({"prog", "--scale=0.5x", "--rate=1e"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 1.0);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 2.0), 2.0);
  EXPECT_EQ(args.errors().size(), 2u);
}

TEST(Args, PartialMatchIsRejected) {
  // from_chars alone would parse "3.5" out of "3.5abc"; the full string
  // must match.
  const auto args = make_args({"prog", "--watch=3.5abc", "--clip=1 "});
  EXPECT_DOUBLE_EQ(args.get_double("watch", 9.0), 9.0);
  EXPECT_EQ(args.get_int("clip", 4), 4);
  EXPECT_EQ(args.errors().size(), 2u);
}

TEST(Args, BareFlagNumericLookupIsNotAnError) {
  // --live has no value; asking for it as a number uses the fallback
  // without flagging a user mistake.
  const auto args = make_args({"prog", "--live"});
  EXPECT_EQ(args.get_int("live", 3), 3);
  EXPECT_TRUE(args.errors().empty());
}

TEST(Args, DoubleDashEndsFlagParsing) {
  const auto args = make_args({"prog", "--seed=5", "--", "--not-a-flag"});
  EXPECT_EQ(args.get_int("seed", 0), 5);
  EXPECT_FALSE(args.has("not-a-flag"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "--not-a-flag");
  EXPECT_TRUE(args.errors().empty());
}

// reject_unknown reports exactly the flags outside the allowed set, each by
// name, and never looks at positional arguments.
TEST(Args, RejectUnknownReportsEachUnknownFlagByName) {
  const std::vector<std::string_view> allowed = {"scale", "threads", "live"};
  const struct {
    std::initializer_list<const char*> argv;
    std::vector<std::string> unknown;
  } cases[] = {
      {{"prog"}, {}},
      {{"prog", "summary", "--scale", "0.1", "--threads=2", "--live"}, {}},
      {{"prog", "--thread", "2"}, {"--thread"}},
      {{"prog", "--scale=0.1", "--metric=x", "--bogus"},
       {"--bogus", "--metric"}},
      {{"prog", "--threads", "2", "--", "--thread", "--x=1"}, {}},
      {{"prog", "fig", "--", "--scale"}, {}},
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const auto args = make_args(cases[c].argv);
    const std::vector<std::string> positional_before = args.positional();
    args.reject_unknown(allowed);
    ASSERT_EQ(args.errors().size(), cases[c].unknown.size()) << "case " << c;
    for (std::size_t i = 0; i < cases[c].unknown.size(); ++i) {
      EXPECT_EQ(args.errors()[i], cases[c].unknown[i] + ": unknown flag")
          << "case " << c;
    }
    EXPECT_EQ(args.positional(), positional_before) << "case " << c;
  }
}

TEST(SmallVec, StaysInlineUpToCapacity) {
  util::SmallVec<int, 3> v;
  EXPECT_TRUE(v.empty());
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_TRUE(v.is_inline());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v.back(), 3);
}

TEST(SmallVec, SpillsToHeapAndKeepsContents) {
  util::SmallVec<int, 3> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVec, CopyAndMovePreserveElements) {
  util::SmallVec<std::pair<int, int>, 2> v;
  v.emplace_back(1, 2);
  v.emplace_back(3, 4);
  v.emplace_back(5, 6);  // spilled
  auto copy = v;
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[2], (std::pair<int, int>{5, 6}));
  auto moved = std::move(v);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved[0], (std::pair<int, int>{1, 2}));

  // Inline move: elements are moved individually.
  util::SmallVec<int, 4> inline_v;
  inline_v.push_back(7);
  auto inline_moved = std::move(inline_v);
  ASSERT_EQ(inline_moved.size(), 1u);
  EXPECT_EQ(inline_moved[0], 7);
}

TEST(SmallVec, MoveOnlyElements) {
  util::SmallVec<std::unique_ptr<int>, 2> v;
  v.push_back(std::make_unique<int>(1));
  v.push_back(std::make_unique<int>(2));
  v.push_back(std::make_unique<int>(3));
  auto moved = std::move(v);
  ASSERT_EQ(moved.size(), 3u);
  EXPECT_EQ(*moved[2], 3);
}

TEST(SmallVec, ClearKeepsHeapCapacityAndRangeForWorks) {
  util::SmallVec<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const auto cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  v.push_back(42);
  int sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 42);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  const auto escaped = [](std::string_view s) {
    std::string out;
    util::json_escape(out, s);
    return out;
  };
  EXPECT_EQ(escaped("plain text"), "plain text");
  EXPECT_EQ(escaped("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escaped("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escaped("a\nb\rc\td"), "a\\nb\\rc\\td");
  EXPECT_EQ(escaped(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
  // Appends to existing content rather than replacing it.
  std::string out = "pre:";
  util::json_escape(out, "x");
  EXPECT_EQ(out, "pre:x");
}

TEST(JsonQuote, WrapsAndEscapes) {
  EXPECT_EQ(util::json_quote("abc"), "\"abc\"");
  EXPECT_EQ(util::json_quote(""), "\"\"");
  EXPECT_EQ(util::json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(util::json_quote("line\nbreak"), "\"line\\nbreak\"");
}

TEST(Symbol, InterningGivesOneIdPerDistinctString) {
  const util::Symbol a("US/CNN");
  const util::Symbol b(std::string("US/CNN"));
  const util::Symbol c("UK/BBC");
  EXPECT_EQ(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.str(), "US/CNN");
  EXPECT_EQ(c.str(), "UK/BBC");
}

TEST(Symbol, DefaultIsEmptyStringWithIdZero) {
  const util::Symbol s;
  EXPECT_EQ(s.id(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.str(), "");
  EXPECT_EQ(s, util::Symbol(""));
}

TEST(Symbol, ImplicitStringConversionRoundTrips) {
  const util::Symbol s("Pentium II / 128-256");
  const std::string& back = s;
  EXPECT_EQ(back, "Pentium II / 128-256");
  EXPECT_EQ(s.size(), back.size());
  std::map<std::string, int> m;
  m[s] = 7;  // usable as an ordered-map key via the conversion
  EXPECT_EQ(m.count("Pentium II / 128-256"), 1u);
}

TEST(Symbol, OrderingFollowsStringOrder) {
  const util::Symbol a("alpha"), b("beta");
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
}

TEST(Symbol, ConcurrentInterningIsConsistent) {
  // Many threads interning overlapping vocabularies must agree on ids.
  constexpr int kThreads = 8, kStrings = 64;
  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(kStrings));
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &ids] {
      for (int i = 0; i < kStrings; ++i) {
        ids[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            util::Symbol("concurrent-" + std::to_string(i)).id();
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[static_cast<std::size_t>(t)], ids[0]);
  }
  std::set<std::uint32_t> distinct(ids[0].begin(), ids[0].end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kStrings));
}

TEST(Md5, Rfc1321TestVectors) {
  EXPECT_EQ(util::md5_hex(""), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(util::md5_hex("a"), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(util::md5_hex("abc"), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(util::md5_hex("message digest"),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(util::md5_hex("abcdefghijklmnopqrstuvwxyz"),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      util::md5_hex("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                    "0123456789"),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(util::md5_hex("1234567890123456789012345678901234567890"
                          "1234567890123456789012345678901234567890"),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalUpdatesMatchOneShot) {
  util::Md5 h;
  h.update("mess");
  h.update("age ");
  h.update("digest");
  EXPECT_EQ(h.hex_digest(), util::md5_hex("message digest"));
}

TEST(Md5, FileDigestMatchesInMemory) {
  const std::string path = ::testing::TempDir() + "/md5_test.bin";
  // Spans multiple 64-byte blocks and a ragged tail.
  std::string content;
  for (int i = 0; i < 1000; ++i) content += static_cast<char>(i % 251);
  {
    std::ofstream os(path, std::ios::binary);
    os.write(content.data(), static_cast<std::streamsize>(content.size()));
  }
  EXPECT_EQ(util::md5_file_hex(path), util::md5_hex(content));
  EXPECT_EQ(util::md5_file_hex(path + ".does-not-exist"), "");
}

TEST(Bytes, PrimitivesRoundTripLittleEndian) {
  util::ByteWriter w;
  w.fixed(std::uint32_t{0x01020304});
  w.fixed(std::int64_t{-2});
  w.fixed(true);
  w.fixed(1.5);
  w.str("hi");
  w.varint(300);
  for (const bool b : {true, false, true}) w.bit(b);
  const std::string bytes = w.take();
  EXPECT_EQ(bytes.substr(0, 4), std::string("\x04\x03\x02\x01", 4));
  ASSERT_EQ(bytes.size(), 4u + 8 + 1 + 8 + 4 + 2 + 2 + 1);

  util::ByteReader r(bytes);
  EXPECT_EQ(r.fixed<std::uint32_t>(), 0x01020304u);
  EXPECT_EQ(r.fixed<std::int64_t>(), -2);
  EXPECT_TRUE(r.fixed<bool>());
  EXPECT_EQ(r.fixed<double>(), 1.5);
  std::string s;
  r.str(s);
  EXPECT_EQ(s, "hi");
  EXPECT_EQ(r.varint(), 300u);
  EXPECT_TRUE(r.bit());
  EXPECT_FALSE(r.bit());
  EXPECT_TRUE(r.bit());
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, FailureIsStickyAndReadsYieldZero) {
  const std::string bytes("\x07\x00\x00\x00\x09", 5);
  util::ByteReader r(bytes);
  EXPECT_EQ(r.fixed<std::uint32_t>(), 7u);
  EXPECT_EQ(r.fixed<std::uint32_t>(), 0u);  // one byte left: fails
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.pos(), 4u);
  EXPECT_EQ(r.fixed<std::uint8_t>(), 0u);  // the 9 is never read
  EXPECT_EQ(r.pos(), 4u);
  EXPECT_FALSE(r.at_end());
}

TEST(Bytes, RejectsStringsLongerThanTheRestAndNonBinaryBools) {
  util::ByteWriter w;
  w.fixed(std::uint32_t{5});
  w.fixed(std::uint32_t{0});
  util::ByteReader long_str(w.bytes());
  std::string s;
  long_str.str(s);
  EXPECT_FALSE(long_str.ok());

  for (const char byte : {'\0', '\1', '\2', '\xff'}) {
    util::ByteReader r(std::string_view(&byte, 1));
    const bool b = r.fixed<bool>();
    EXPECT_EQ(r.ok(), byte == 0 || byte == 1) << int{byte};
    EXPECT_EQ(b, byte == 1);
  }
}

TEST(Bytes, RejectsOverlongAndUnterminatedVarints) {
  const std::string overlong(11, '\x80');
  util::ByteReader r(overlong);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.pos(), 0u);

  const std::string continued("\xff\xff", 2);
  util::ByteReader unterminated(continued);
  unterminated.varint();
  EXPECT_FALSE(unterminated.ok());
}

TEST(Bytes, SequenceCountsAreBoundedByMaxAndRemainingBytes) {
  util::ByteWriter w;
  w.seq(std::vector<std::uint16_t>{1, 2, 3}, 8,
        [&w](std::uint16_t v) { w.fixed(v); });
  const std::string bytes = w.take();
  std::vector<std::uint16_t> got;
  const auto each = [](util::ByteReader& r) {
    return [&r](std::uint16_t& v) { r.fixed(v); };
  };
  util::ByteReader ok(bytes);
  ok.seq(got, 8, each(ok));
  EXPECT_TRUE(ok.at_end());
  EXPECT_EQ(got, (std::vector<std::uint16_t>{1, 2, 3}));

  util::ByteReader over_max(bytes);
  over_max.seq(got, 2, each(over_max));
  EXPECT_FALSE(over_max.ok());
  EXPECT_TRUE(got.empty());

  // A count of 2^31 with six bytes behind it never allocates.
  std::string huge = bytes;
  huge[3] = '\x80';
  util::ByteReader over_rest(huge);
  over_rest.seq(got, UINT32_MAX, each(over_rest));
  EXPECT_FALSE(over_rest.ok());
}

}  // namespace
}  // namespace rv
