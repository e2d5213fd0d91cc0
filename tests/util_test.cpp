#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/combinations.h"
#include "util/mask.h"
#include "util/sha256.h"
#include "util/table.h"
#include "obs/clock.h"

namespace sani {
namespace {

TEST(Mask, BitBasics) {
  Mask m;
  EXPECT_TRUE(m.empty());
  m.set(0);
  m.set(63);
  m.set(64);
  m.set(127);
  EXPECT_EQ(m.popcount(), 4);
  EXPECT_TRUE(m.test(63));
  EXPECT_TRUE(m.test(64));
  EXPECT_FALSE(m.test(65));
  m.reset(64);
  EXPECT_FALSE(m.test(64));
  EXPECT_EQ(m.lowest_bit(), 0);
  EXPECT_EQ(m.highest_bit(), 127);
}

TEST(Mask, BitFactory) {
  for (int i : {0, 1, 63, 64, 100, 127}) {
    Mask m = Mask::bit(i);
    EXPECT_EQ(m.popcount(), 1);
    EXPECT_TRUE(m.test(i));
  }
}

TEST(Mask, FirstN) {
  EXPECT_TRUE(Mask::first_n(0).empty());
  EXPECT_EQ(Mask::first_n(5).popcount(), 5);
  EXPECT_EQ(Mask::first_n(64).popcount(), 64);
  EXPECT_EQ(Mask::first_n(65).popcount(), 65);
  EXPECT_EQ(Mask::first_n(128).popcount(), 128);
  EXPECT_TRUE(Mask::first_n(65).test(64));
  EXPECT_FALSE(Mask::first_n(65).test(65));
}

TEST(Mask, SetAlgebra) {
  Mask a = Mask::bit(3) | Mask::bit(70);
  Mask b = Mask::bit(3) | Mask::bit(5);
  EXPECT_EQ((a & b), Mask::bit(3));
  EXPECT_EQ((a ^ b), Mask::bit(70) | Mask::bit(5));
  EXPECT_EQ((a - b), Mask::bit(70));
  EXPECT_TRUE(Mask::bit(3).subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE((a - b).intersects(b));
}

TEST(Mask, DotIsGf2InnerProduct) {
  Mask a = Mask::bit(1) | Mask::bit(2) | Mask::bit(100);
  EXPECT_TRUE(a.dot(Mask::bit(1)));
  EXPECT_FALSE(a.dot(Mask::bit(1) | Mask::bit(2)));
  EXPECT_TRUE(a.dot(Mask::bit(1) | Mask::bit(2) | Mask::bit(100)));
  EXPECT_FALSE(a.dot(Mask::bit(7)));
}

TEST(Mask, ForEachBitAscending) {
  Mask m = Mask::bit(5) | Mask::bit(64) | Mask::bit(9);
  std::vector<int> bits;
  m.for_each_bit([&](int i) { bits.push_back(i); });
  EXPECT_EQ(bits, (std::vector<int>{5, 9, 64}));
  EXPECT_EQ(m.to_string(), "{5,9,64}");
}

TEST(Mask, PopcountMatchesABitLoop) {
  // Seeded masks of every density, so both words and the empty and full
  // ends are covered whichever instruction popcount compiles to.
  std::mt19937_64 rng(20221);
  for (int i = 0; i < 4096; ++i) {
    Mask m{rng(), rng()};
    const int thin = i % 4;  // AND in up to three more words: sparser masks
    for (int t = 0; t < thin; ++t) m &= Mask{rng(), rng()};
    if (i % 97 == 0) m = Mask{};
    if (i % 89 == 0) m = Mask::first_n(128);
    int bits = 0;
    for (int b = 0; b < Mask::kMaxBits; ++b) bits += m.test(b) ? 1 : 0;
    ASSERT_EQ(m.popcount(), bits) << m.to_string();
  }
}

TEST(Mask, OrderingIsTotal) {
  Mask a = Mask::bit(3);
  Mask b = Mask::bit(64);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_FALSE(a < a);
}

TEST(Combinations, EnumeratesAll) {
  CombinationIter it(5, 3);
  ASSERT_TRUE(it.valid());
  int count = 0;
  std::vector<int> first = it.indices();
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  do {
    ++count;
  } while (it.next());
  EXPECT_EQ(count, 10);
}

TEST(Combinations, EdgeCases) {
  EXPECT_FALSE(CombinationIter(3, 4).valid());
  CombinationIter zero(3, 0);
  EXPECT_TRUE(zero.valid());
  EXPECT_TRUE(zero.indices().empty());
  EXPECT_FALSE(zero.next());
  CombinationIter full(3, 3);
  EXPECT_EQ(full.indices(), (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(full.next());
}

TEST(Combinations, Binomial) {
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(4, 5), 0u);
  EXPECT_EQ(binomial(60, 30), 118264581564861424ull);
  EXPECT_EQ(count_combinations_up_to(4, 2), 4u + 6u);
}

TEST(Sha256, KnownAnswers) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(util::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(util::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      util::sha256_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(util::sha256_hex(std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  // Padding boundaries: the tail fills exactly one block (55 bytes), spills
  // into a second (63), or is empty after a whole block (64).
  EXPECT_EQ(util::sha256_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(util::sha256_hex(std::string(63, 'a')),
            "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
  EXPECT_EQ(util::sha256_hex(std::string(64, 'a')),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, ChunkedUpdatesMatchOneShot) {
  std::string msg(300, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<char>(i * 131 + 7);
  const std::string want = util::sha256_hex(msg);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    util::Sha256 h;
    h.update(msg.data(), split);
    h.update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.hex_digest(), want) << "split " << split;
  }
}

TEST(Sha256, DispatchedCompressMatchesPortable) {
  // Whichever kernel this host dispatches to must agree with the portable
  // FIPS loop block for block; on a host without the SHA extensions both
  // sides are the portable loop.
  std::uint64_t state = 0x243F6A8885A308D3ull;
  auto next_byte = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<std::uint8_t>(state >> 24);
  };
  for (std::size_t len = 0; len <= 4096; len += 37) {
    std::vector<std::uint8_t> msg(len);
    for (std::uint8_t& b : msg) b = next_byte();
    std::uint32_t want[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    std::uint32_t got[8];
    std::memcpy(got, want, sizeof(got));
    util::detail::sha256_compress_portable(want, msg.data(), len / 64);
    util::detail::sha256_compress(got, msg.data(), len / 64);
    EXPECT_EQ(std::memcmp(want, got, sizeof(got)), 0) << "length " << len;
  }
}

TEST(Timers, Accumulates) {
  PhaseTimers t;
  t.add("a", 1.0);
  t.add("b", 2.0);
  t.add("a", 0.5);
  EXPECT_DOUBLE_EQ(t.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(t.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(t.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(t.total(), 3.5);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Table, RendersAlignedAscii) {
  TextTable t({"name", "value"});
  t.row().add("x").add(std::int64_t{42});
  t.row().add("longer").add(3.14159, 2);
  std::string s = t.to_ascii();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 3.14  |"), std::string::npos);
  std::string md = t.to_markdown();
  EXPECT_NE(md.find("|--------|-------|"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  TextTable t({"name", "note"});
  t.row().add("plain").add("with,comma");
  t.row().add("q\"uote").add("multi\nline");
  std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,note\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"uote\""), std::string::npos);
}

TEST(Cli, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--full", "--level", "3",
                        "--gadget=dom-2", "positional"};
  CliArgs args(6, argv);
  EXPECT_TRUE(args.has("full"));
  EXPECT_FALSE(args.has("quick"));
  EXPECT_EQ(args.value_int("level", 1), 3);
  EXPECT_EQ(args.value_or("gadget", ""), "dom-2");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "positional");
}

}  // namespace
}  // namespace sani
