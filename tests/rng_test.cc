#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

namespace memtis {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NextBoolMatchesProbability) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / 20000.0, 0.3, 0.02);
}

TEST(RandomPermutation, IsAPermutation) {
  Rng rng(5);
  auto perm = RandomPermutation(1000, rng);
  std::vector<bool> seen(1000, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 1000u);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(ZipfSampler, RanksWithinRange) {
  Rng rng(11);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(ZipfSampler, SingleItemAlwaysZero) {
  Rng rng(11);
  ZipfSampler zipf(1, 1.2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(ZipfSampler, HeadDominatesForHighSkew) {
  Rng rng(13);
  ZipfSampler zipf(10000, 1.2);
  const int n = 100000;
  int head = 0;  // top 1% of ranks
  for (int i = 0; i < n; ++i) {
    head += zipf.Sample(rng) < 100 ? 1 : 0;
  }
  // With s=1.2 over 10k items, the top 1% gets the majority of accesses.
  EXPECT_GT(static_cast<double>(head) / n, 0.5);
}

TEST(ZipfSampler, RankFrequencyIsMonotone) {
  Rng rng(17);
  ZipfSampler zipf(50, 1.0);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 200000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Aggregate monotonicity: first 5 ranks >> next 5 ranks, etc.
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[0] + counts[1], counts[10] + counts[11]);
  int top10 = 0;
  int bottom10 = 0;
  for (int i = 0; i < 10; ++i) {
    top10 += counts[i];
    bottom10 += counts[40 + i];
  }
  EXPECT_GT(top10, 4 * bottom10);
}

class ZipfExponentTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentTest, DistributionIsValidAcrossExponents) {
  const double s = GetParam();
  Rng rng(23);
  ZipfSampler zipf(1000, s);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    const uint64_t r = zipf.Sample(rng);
    ASSERT_LT(r, 1000u);
    ++counts[r];
  }
  // Rank 0 must be the modal rank (within sampling noise, compare to rank 500+).
  EXPECT_GT(counts[0], counts[500]);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentTest,
                         ::testing::Values(0.3, 0.7, 0.9, 0.99, 1.0, 1.2, 1.5));

// The rejection-inversion loop evaluated by its reference expression on
// every iteration: what Sample() must reproduce draw for draw.
uint64_t ReferenceSample(const ZipfSampler& zipf, Rng& rng) {
  if (zipf.n() == 1) {
    return 0;
  }
  while (true) {
    const uint64_t rank = zipf.Reference(rng.Next() >> 11);
    if (rank != ZipfSampler::kReject) {
      return rank;
    }
  }
}

std::vector<uint64_t> StateWords(Rng rng) {
  StateWriter out;
  StateCodec codec(out);
  rng.VisitState(codec);
  StateReader in(out.data());
  std::vector<uint64_t> words;
  while (in.remaining() > 0) {
    words.push_back(in.U64());
  }
  return words;
}

using ZipfShape = std::tuple<uint64_t, double>;

// n spans a single item, the table's rank cap (256) and either side of it,
// and a tail well beyond it; s includes the log/exp branch at exactly 1.
class ZipfDrawTest : public ::testing::TestWithParam<ZipfShape> {};

TEST_P(ZipfDrawTest, SampleMatchesReferenceDrawForDraw) {
  const auto [n, s] = GetParam();
  const ZipfSampler zipf(n, s);
  Rng table_rng(n * 1'000'003 + static_cast<uint64_t>(s * 1000));
  Rng reference_rng = table_rng;
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t got = zipf.Sample(table_rng);
    const uint64_t want = ReferenceSample(zipf, reference_rng);
    if (got != want) {
      FAIL() << "draw " << i << ": table " << got << ", reference " << want;
    }
  }
  EXPECT_EQ(StateWords(table_rng), StateWords(reference_rng));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfDrawTest,
    ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3, 24, 48, 255, 256,
                                                   257, 3072),
                       ::testing::Values(0.3, 0.7, 0.9, 0.99, 1.0, 1.1, 1.2,
                                         1.5)));

// Every guard band is swept from 4096 deviates before its start to 4096
// past its end. A band that missed its crossing would show up here: the
// reference's verdict would then change inside the clean interval next to it,
// so the table would disagree from the band edge up to the true crossing.
class ZipfEdgeTest : public ::testing::TestWithParam<ZipfShape> {};

TEST_P(ZipfEdgeTest, EveryBandEdgeMatchesReference) {
  const auto [n, s] = GetParam();
  const ZipfSampler zipf(n, s);
  constexpr uint64_t kSpan = 4096;
  constexpr uint64_t kDeviates = uint64_t{1} << 53;
  for (const uint64_t edge : zipf.interval_ends()) {
    const uint64_t lo = edge > kSpan ? edge - kSpan : 0;
    const uint64_t hi = std::min(edge + kSpan, kDeviates);
    for (uint64_t r = lo; r < hi; ++r) {
      if (zipf.Iterate(r) != zipf.Reference(r)) {
        FAIL() << "r = " << r << ": table " << zipf.Iterate(r)
               << ", reference " << zipf.Reference(r);
      }
    }
  }
}

// A table with every rank up to the cap has ~1000 edges, each swept by
// ~8000 reference evaluations, so three full-cap shapes (both branches of H,
// and the Graph500 key shape) keep the suite short.
INSTANTIATE_TEST_SUITE_P(
    SmallN, ZipfEdgeTest,
    ::testing::Combine(::testing::Values<uint64_t>(2, 3, 24, 48),
                       ::testing::Values(0.3, 0.7, 0.9, 0.99, 1.0, 1.1, 1.2,
                                         1.5)));
INSTANTIATE_TEST_SUITE_P(FullCap, ZipfEdgeTest,
                         ::testing::Values(ZipfShape{256, 1.0},
                                           ZipfShape{3072, 0.3},
                                           ZipfShape{3072, 1.1}));

TEST(ZipfSampler, TableStaysSmall) {
  // ~4 intervals per tabulated rank: the table stays within ~16 KiB however
  // large n gets, and a single item needs no table at all.
  EXPECT_LE(ZipfSampler(1u << 20, 0.99).interval_ends().size(), 4u * 256 + 3);
  EXPECT_EQ(ZipfSampler(1, 1.2).interval_ends().size(), 1u);
}

TEST(ParetoSampler, ValuesAtLeastOne) {
  Rng rng(29);
  ParetoSampler pareto(1.5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(pareto.Sample(rng), 1.0);
  }
}

}  // namespace
}  // namespace memtis
