// Unit tests for the cache-line touch model.
#include "mem/cache_model.h"

#include <gtest/gtest.h>

namespace cpt::mem {
namespace {

TEST(CacheTouchModelTest, SingleTouchIsOneLine) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x1000}, 8);
  EXPECT_EQ(m.LinesThisWalk(), 1u);
  m.EndWalk();
  EXPECT_EQ(m.total_lines(), 1u);
  EXPECT_EQ(m.total_walks(), 1u);
}

TEST(CacheTouchModelTest, SameLineTouchesDeduplicate) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x1000}, 8);
  m.Touch(PhysAddr{0x1008}, 8);
  m.Touch(PhysAddr{0x10F8}, 8);
  EXPECT_EQ(m.LinesThisWalk(), 1u);
  m.EndWalk();
  EXPECT_EQ(m.total_lines(), 1u);
}

TEST(CacheTouchModelTest, StraddlingTouchCountsBothLines) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x10F8}, 16);  // Crosses the 0x1100 boundary.
  EXPECT_EQ(m.LinesThisWalk(), 2u);
  m.EndWalk();
}

TEST(CacheTouchModelTest, LargeTouchSpansManyLines) {
  CacheTouchModel m(64);
  m.BeginWalk();
  m.Touch(PhysAddr{0x2000}, 256);  // 4 lines of 64 bytes.
  EXPECT_EQ(m.LinesThisWalk(), 4u);
  m.EndWalk();
}

TEST(CacheTouchModelTest, TouchOutsideWalkIgnored) {
  CacheTouchModel m(256);
  m.Touch(PhysAddr{0x1000}, 8);
  EXPECT_EQ(m.total_lines(), 0u);
  EXPECT_EQ(m.total_walks(), 0u);
}

TEST(CacheTouchModelTest, ZeroSizeTouchIgnored) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x1000}, 0);
  EXPECT_EQ(m.LinesThisWalk(), 0u);
  m.EndWalk();
}

TEST(CacheTouchModelTest, AbortWalkDiscardsCounting) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x1000}, 8);
  m.AbortWalk();
  EXPECT_EQ(m.total_lines(), 0u);
  EXPECT_EQ(m.total_walks(), 0u);
  // A subsequent counted walk works normally.
  m.BeginWalk();
  m.Touch(PhysAddr{0x2000}, 8);
  m.EndWalk();
  EXPECT_EQ(m.total_lines(), 1u);
  EXPECT_EQ(m.total_walks(), 1u);
}

TEST(CacheTouchModelTest, AveragesAcrossWalks) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x0}, 8);
  m.EndWalk();
  m.BeginWalk();
  m.Touch(PhysAddr{0x0}, 8);
  m.Touch(PhysAddr{0x1000}, 8);
  m.Touch(PhysAddr{0x2000}, 8);
  m.EndWalk();
  EXPECT_EQ(m.total_walks(), 2u);
  EXPECT_EQ(m.total_lines(), 4u);
  EXPECT_DOUBLE_EQ(m.AvgLinesPerWalk(), 2.0);
}

TEST(CacheTouchModelTest, ResetClearsEverything) {
  CacheTouchModel m(256);
  m.BeginWalk();
  m.Touch(PhysAddr{0x0}, 8);
  m.EndWalk();
  m.Reset();
  EXPECT_EQ(m.total_lines(), 0u);
  EXPECT_EQ(m.total_walks(), 0u);
  EXPECT_DOUBLE_EQ(m.AvgLinesPerWalk(), 0.0);
}

TEST(CacheTouchModelTest, WalkScopeBracketsWalk) {
  CacheTouchModel m(256);
  {
    WalkScope scope(m);
    m.Touch(PhysAddr{0x1000}, 8);
  }
  EXPECT_EQ(m.total_walks(), 1u);
  EXPECT_EQ(m.total_lines(), 1u);
}

class CacheLineSizeTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheLineSizeTest, LineIdGranularityMatchesLineSize) {
  const std::uint32_t line = GetParam();
  CacheTouchModel m(line);
  m.BeginWalk();
  m.Touch(PhysAddr{0}, 1);
  m.Touch(PhysAddr{line - 1}, 1);  // Same line.
  m.Touch(PhysAddr{line}, 1);      // Next line.
  EXPECT_EQ(m.LinesThisWalk(), 2u);
  m.EndWalk();
}

INSTANTIATE_TEST_SUITE_P(AllLineSizes, CacheLineSizeTest,
                         ::testing::Values(32, 64, 128, 256, 512));

}  // namespace
}  // namespace cpt::mem
