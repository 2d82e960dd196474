#include "tensor/shape.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace tpcp {
namespace {

TEST(ShapeTest, BasicProperties) {
  Shape s({3, 4, 5});
  EXPECT_EQ(s.num_modes(), 3);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s.dim(2), 5);
  EXPECT_EQ(s.NumElements(), 60);
  EXPECT_EQ(s.NumElementsExcept(1), 15);
  EXPECT_EQ(s.ToString(), "3x4x5");
}

TEST(ShapeTest, CheckedElementCountRejectsWhatShapeCannotHold) {
  auto ok = CheckedElementCount({3, 4, 5});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 60);
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(*CheckedElementCount({max}), max);
  for (const std::vector<int64_t>& dims :
       std::vector<std::vector<int64_t>>{
           {}, {0}, {4, -1, 4}, {int64_t{1} << 62, 4, 4}, {max, 2}}) {
    EXPECT_EQ(CheckedElementCount(dims).status().code(),
              StatusCode::kInvalidArgument)
        << dims.size();
  }
}

TEST(ShapeTest, RowMajorLinearization) {
  Shape s({2, 3, 4});
  // Last mode fastest.
  EXPECT_EQ(s.LinearIndex({0, 0, 0}), 0);
  EXPECT_EQ(s.LinearIndex({0, 0, 1}), 1);
  EXPECT_EQ(s.LinearIndex({0, 1, 0}), 4);
  EXPECT_EQ(s.LinearIndex({1, 0, 0}), 12);
  EXPECT_EQ(s.LinearIndex({1, 2, 3}), 23);
}

TEST(ShapeTest, LinearMultiRoundTrip) {
  Shape s({3, 5, 2, 4});
  for (int64_t linear = 0; linear < s.NumElements(); ++linear) {
    EXPECT_EQ(s.LinearIndex(s.MultiIndex(linear)), linear);
  }
}

TEST(ShapeTest, SingleModeDegenerate) {
  Shape s({7});
  EXPECT_EQ(s.num_modes(), 1);
  EXPECT_EQ(s.NumElements(), 7);
  EXPECT_EQ(s.MultiIndex(3), Index{3});
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

class ShapeRoundTrip : public ::testing::TestWithParam<std::vector<int64_t>> {
};

TEST_P(ShapeRoundTrip, AllCellsRoundTrip) {
  Shape s(GetParam());
  for (int64_t linear = 0; linear < s.NumElements(); ++linear) {
    const Index idx = s.MultiIndex(linear);
    for (int m = 0; m < s.num_modes(); ++m) {
      EXPECT_GE(idx[static_cast<size_t>(m)], 0);
      EXPECT_LT(idx[static_cast<size_t>(m)], s.dim(m));
    }
    EXPECT_EQ(s.LinearIndex(idx), linear);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeRoundTrip,
    ::testing::Values(std::vector<int64_t>{1}, std::vector<int64_t>{4},
                      std::vector<int64_t>{2, 2},
                      std::vector<int64_t>{1, 5, 1},
                      std::vector<int64_t>{3, 4, 5},
                      std::vector<int64_t>{2, 3, 2, 3}));

}  // namespace
}  // namespace tpcp
