#include "stcomp/geom/geometry.h"

#include <cmath>
#include <iomanip>
#include <string>

#include <gtest/gtest.h>

#include "stcomp/sim/random.h"

namespace stcomp {
namespace {

constexpr double kPi = 3.14159265358979323846;

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ(a + b, Vec2(4.0, 1.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 3.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(2.0 * a, Vec2(2.0, 4.0));
  EXPECT_EQ(b / 2.0, Vec2(1.5, -0.5));
}

TEST(Vec2Test, DotCrossNorm) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.Norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 25.0);
  EXPECT_DOUBLE_EQ(a.Dot({1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(Vec2(1.0, 0.0).Cross({0.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(Vec2(0.0, 1.0).Cross({1.0, 0.0}), -1.0);
}

TEST(GeometryTest, DistanceSymmetric) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({3, 4}, {0, 0}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {2, 2}), 2.0);
}

TEST(PointToLineTest, PerpendicularOffset) {
  // Horizontal line y = 0; point at height 7.
  EXPECT_DOUBLE_EQ(PointToLineDistance({5, 7}, {0, 0}, {10, 0}), 7.0);
  // Distance to the infinite line ignores being beyond the segment ends.
  EXPECT_DOUBLE_EQ(PointToLineDistance({-100, 7}, {0, 0}, {10, 0}), 7.0);
}

TEST(PointToLineTest, DegenerateLineFallsBackToPointDistance) {
  EXPECT_DOUBLE_EQ(PointToLineDistance({3, 4}, {0, 0}, {0, 0}), 5.0);
}

TEST(PointToSegmentTest, InteriorProjection) {
  EXPECT_DOUBLE_EQ(PointToSegmentDistance({5, 7}, {0, 0}, {10, 0}), 7.0);
}

TEST(PointToSegmentTest, ClampsToEndpoints) {
  EXPECT_DOUBLE_EQ(PointToSegmentDistance({-3, 4}, {0, 0}, {10, 0}), 5.0);
  EXPECT_DOUBLE_EQ(PointToSegmentDistance({13, 4}, {0, 0}, {10, 0}), 5.0);
}

TEST(PointToSegmentTest, DegenerateSegment) {
  EXPECT_DOUBLE_EQ(PointToSegmentDistance({3, 4}, {1, 1}, {1, 1}),
                   Distance({3, 4}, {1, 1}));
}

TEST(ProjectOntoSegmentTest, Parameters) {
  EXPECT_DOUBLE_EQ(ProjectOntoSegment({5, 3}, {0, 0}, {10, 0}), 0.5);
  EXPECT_DOUBLE_EQ(ProjectOntoSegment({-5, 3}, {0, 0}, {10, 0}), 0.0);
  EXPECT_DOUBLE_EQ(ProjectOntoSegment({15, 3}, {0, 0}, {10, 0}), 1.0);
  EXPECT_DOUBLE_EQ(ProjectOntoSegment({5, 3}, {2, 2}, {2, 2}), 0.0);
}

TEST(AngleTest, InteriorAngleStraightAndRightAndReversal) {
  EXPECT_NEAR(InteriorAngle({0, 0}, {1, 0}, {2, 0}), kPi, 1e-12);
  EXPECT_NEAR(InteriorAngle({0, 0}, {1, 0}, {1, 1}), kPi / 2, 1e-12);
  EXPECT_NEAR(InteriorAngle({0, 0}, {1, 0}, {0, 0}), 0.0, 1e-12);
}

TEST(AngleTest, DegenerateArmTreatedAsStraight) {
  EXPECT_NEAR(InteriorAngle({1, 0}, {1, 0}, {2, 0}), kPi, 1e-12);
}

TEST(AngleTest, HeadingChangeComplements) {
  EXPECT_NEAR(HeadingChange({0, 0}, {1, 0}, {2, 0}), 0.0, 1e-12);
  EXPECT_NEAR(HeadingChange({0, 0}, {1, 0}, {1, 1}), kPi / 2, 1e-12);
  EXPECT_NEAR(HeadingChange({0, 0}, {1, 0}, {0, 0}), kPi, 1e-12);
}

TEST(AngleTest, Heading) {
  EXPECT_NEAR(Heading({0, 0}, {1, 0}), 0.0, 1e-12);
  EXPECT_NEAR(Heading({0, 0}, {0, 1}), kPi / 2, 1e-12);
  EXPECT_NEAR(Heading({0, 0}, {-1, 0}), kPi, 1e-12);
  EXPECT_DOUBLE_EQ(Heading({1, 1}, {1, 1}), 0.0);
}

TEST(LerpTest, Endpoints) {
  EXPECT_EQ(Lerp({0, 0}, {10, 20}, 0.0), Vec2(0, 0));
  EXPECT_EQ(Lerp({0, 0}, {10, 20}, 1.0), Vec2(10, 20));
  EXPECT_EQ(Lerp({0, 0}, {10, 20}, 0.25), Vec2(2.5, 5.0));
}

TEST(SegmentsIntersectTest, Crossing) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {10, 10}, {0, 10}, {10, 0}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {10, 10}, {0, 10}, {10, 0}), 0.0);
}

TEST(SegmentsIntersectTest, TouchingEndpoints) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {5, 5}, {5, 5}, {10, 0}));
  EXPECT_TRUE(SegmentsIntersect({5, 5}, {0, 0}, {10, 0}, {5, 5}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {5, 5}, {5, 5}, {10, 0}), 0.0);
}

TEST(SegmentsIntersectTest, TJunction) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {10, 0}, {5, 0}, {5, 7}));
  EXPECT_TRUE(SegmentsIntersect({5, 7}, {5, 0}, {0, 0}, {10, 0}));
  // The stem stops 1 m short of the bar.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {10, 0}, {5, 1}, {5, 7}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {10, 0}, {5, 1}, {5, 7}), 1.0);
}

TEST(SegmentsIntersectTest, Collinear) {
  // Overlapping, and one inside the other.
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {10, 0}, {5, 0}, {15, 0}));
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {10, 10}, {3, 3}, {2, 2}));
  // Disjoint on the same line.
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {10, 0}, {12, 0}, {20, 0}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {10, 0}, {12, 0}, {20, 0}), 2.0);
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {0, 4}, {0, 7}, {0, 9}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {0, 4}, {0, 7}, {0, 9}), 3.0);
}

TEST(SegmentsIntersectTest, Parallel) {
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {10, 0}, {0, 3}, {10, 3}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {10, 0}, {0, 3}, {10, 3}), 3.0);
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {4, 4}, {1, 0}, {5, 4}));
  EXPECT_NEAR(SegmentToSegmentDistance({0, 0}, {4, 4}, {1, 0}, {5, 4}),
              std::sqrt(0.5), 1e-12);
}

TEST(SegmentsIntersectTest, ZeroLengthSegments) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {10, 0}, {4, 0}, {4, 0}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {10, 0}, {4, 2}, {4, 2}));
  EXPECT_EQ(SegmentToSegmentDistance({0, 0}, {10, 0}, {4, 2}, {4, 2}), 2.0);
  EXPECT_TRUE(SegmentsIntersect({1, 1}, {1, 1}, {1, 1}, {1, 1}));
  EXPECT_FALSE(SegmentsIntersect({1, 1}, {1, 1}, {4, 5}, {4, 5}));
  EXPECT_EQ(SegmentToSegmentDistance({1, 1}, {1, 1}, {4, 5}, {4, 5}), 5.0);
}

// Two segments 3,156 m apart on nearly the same line. All four
// orientation signs come from rounding (two crosses round to exactly 0,
// two to +-1e-9 of opposite sign), which read as a crossing until the
// disjoint bounding boxes ruled it out.
TEST(SegmentsIntersectTest, FarApartNearlyCollinearSegmentsDoNotIntersect) {
  const Vec2 a{-4916.6883744880261, -1691.179513080715};
  const Vec2 b{-3837.8248405584513, 1479.7326689710667};
  const Vec2 c{-2821.1565090990844, 4467.8455265710936};
  const Vec2 d{-1916.6883744880261, 7126.1882512247848};
  EXPECT_FALSE(SegmentsIntersect(a, b, c, d));
  EXPECT_FALSE(SegmentsIntersect(c, d, a, b));
  EXPECT_NEAR(SegmentToSegmentDistance(a, b, c, d), 3156.33, 0.01);
  EXPECT_NEAR(SegmentToSegmentDistance(c, d, a, b), 3156.33, 0.01);
}

TEST(SegmentIntersectsBoxTest, InsideCrossingTouchingAndOutside) {
  const BoundingBox box{{0, 0}, {10, 10}};
  EXPECT_TRUE(SegmentIntersectsBox({2, 2}, {8, 3}, box));     // inside
  EXPECT_TRUE(SegmentIntersectsBox({-5, 5}, {15, 6}, box));   // crossing
  EXPECT_TRUE(SegmentIntersectsBox({5, 5}, {5, 25}, box));    // leaving
  EXPECT_TRUE(SegmentIntersectsBox({-5, 15}, {0, 10}, box));  // ends on a corner
  EXPECT_TRUE(SegmentIntersectsBox({-5, 5}, {5, 15}, box));   // through a corner
  // Collinear with an edge: along it, and on its line but beyond it.
  EXPECT_TRUE(SegmentIntersectsBox({-5, 0}, {15, 0}, box));
  EXPECT_TRUE(SegmentIntersectsBox({10, 3}, {10, 4}, box));
  EXPECT_FALSE(SegmentIntersectsBox({-5, 10}, {-1, 10}, box));
  // Outside: boxes apart, and boxes overlapping with the segment passing
  // 1/sqrt(2) m beyond the corner.
  EXPECT_FALSE(SegmentIntersectsBox({11, -5}, {20, 5}, box));
  EXPECT_FALSE(SegmentIntersectsBox({-5, 6}, {6, 17}, box));
  EXPECT_FALSE(SegmentIntersectsBox({12, 12}, {12, 12}, box));
}

TEST(SegmentToBoxDistanceTest, ZeroWhenMeetingElseNearestFeature) {
  const BoundingBox box{{0, 0}, {10, 10}};
  EXPECT_EQ(SegmentToBoxDistance({2, 2}, {8, 3}, box), 0.0);
  EXPECT_EQ(SegmentToBoxDistance({-5, 15}, {0, 10}, box), 0.0);
  EXPECT_EQ(SegmentToBoxDistance({13, -20}, {13, 20}, box), 3.0);
  EXPECT_NEAR(SegmentToBoxDistance({-5, 6}, {6, 17}, box), std::sqrt(0.5),
              1e-12);
  EXPECT_EQ(SegmentToBoxDistance({13, 14}, {13, 14}, box), 5.0);
}

TEST(PointToBoxDistanceTest, InsideBoundaryEdgeAndCorner) {
  const BoundingBox box{{0, 0}, {10, 10}};
  EXPECT_EQ(PointToBoxDistance({5, 5}, box), 0.0);
  EXPECT_EQ(PointToBoxDistance({10, 5}, box), 0.0);
  EXPECT_EQ(PointToBoxDistance({5, -3}, box), 3.0);
  EXPECT_EQ(PointToBoxDistance({-2, 7}, box), 2.0);
  EXPECT_EQ(PointToBoxDistance({13, 14}, box), 5.0);
}

TEST(BoxesFartherThanTest, ComparesTheLargestAxisGap) {
  const BoundingBox unit{{0, 0}, {1, 1}};
  const BoundingBox right{{4, 0.5}, {5, 2}};  // 3 m gap along x
  EXPECT_TRUE(BoxesFartherThan(unit, right, 2.5));
  EXPECT_TRUE(BoxesFartherThan(right, unit, 2.5));
  EXPECT_FALSE(BoxesFartherThan(unit, right, 3.0));
  EXPECT_FALSE(BoxesFartherThan(unit, unit, 0.0));
  // Diagonal neighbours 3 m apart on each axis: the largest gap (3) is a
  // lower bound on the true distance (3 * sqrt(2)), so r = 4 is kept.
  const BoundingBox diagonal{{4, 4}, {5, 5}};
  EXPECT_TRUE(BoxesFartherThan(unit, diagonal, 2.9));
  EXPECT_FALSE(BoxesFartherThan(unit, diagonal, 4.0));
}

// The seeded families of the BoxesFartherThan property: a segment [a, b]
// and a corridor leg [c, d].
enum class PairFamily {
  kRandom,
  kNearlyCollinear,
  kAxisAligned,
  kPointLeg,
  kPointSegment,
  kHugeCoordinates,
};

struct SegmentPair {
  Vec2 a, b, c, d;
};

Vec2 Near(Rng& rng, Vec2 center, double spread) {
  return center + Vec2{rng.NextUniform(-spread, spread),
                       rng.NextUniform(-spread, spread)};
}

// A random pair: segments up to ~1 km long whose starts lie up to 3 km
// apart around `center`.
SegmentPair RandomPair(Rng& rng, Vec2 center) {
  const Vec2 a = Near(rng, center, 5000.0);
  const Vec2 c = Near(rng, a, 3000.0);
  return {a, Near(rng, a, 600.0), c, Near(rng, c, 600.0)};
}

SegmentPair GeneratePair(PairFamily family, Rng& rng) {
  switch (family) {
    case PairFamily::kRandom:
      return RandomPair(rng, {0, 0});
    case PairFamily::kNearlyCollinear: {
      // Four points in order along one line, off it only by the rounding
      // of their coordinates: rounding decides every orientation sign.
      const Vec2 origin = Near(rng, {0, 0}, 5000.0);
      const double heading = rng.NextUniform(0.0, 2.0 * kPi);
      const Vec2 direction{std::cos(heading), std::sin(heading)};
      double s = rng.NextUniform(-3000.0, 3000.0);
      Vec2 along[4];
      for (Vec2& point : along) {
        point = origin + direction * s;
        s += rng.NextUniform(0.0, 2000.0);
      }
      return {along[0], along[1], along[2], along[3]};
    }
    case PairFamily::kAxisAligned: {
      // Horizontal or vertical segments on a whole-metre grid.
      const auto axis_segment = [&rng](Vec2 start) {
        const Vec2 from{std::round(start.x), std::round(start.y)};
        const double length = std::round(rng.NextUniform(0.0, 800.0));
        return rng.NextBool(0.5) ? std::pair{from, from + Vec2{length, 0}}
                                 : std::pair{from, from + Vec2{0, length}};
      };
      const auto [a, b] = axis_segment(Near(rng, {0, 0}, 5000.0));
      const auto [c, d] = axis_segment(Near(rng, a, 3000.0));
      return {a, b, c, d};
    }
    case PairFamily::kPointLeg: {
      SegmentPair pair = RandomPair(rng, {0, 0});
      pair.d = pair.c;
      return pair;
    }
    case PairFamily::kPointSegment: {
      SegmentPair pair = RandomPair(rng, {0, 0});
      pair.b = pair.a;
      return pair;
    }
    case PairFamily::kHugeCoordinates:
      return RandomPair(rng, {1e7, -1e7});
  }
  return {};
}

// BoxesFartherThan must never reject a pair at r = the distance the exact
// predicates compute for it, in the forms the query engine uses: segment
// to leg (corridor predicate), waypoint to segment (one-waypoint
// corridor) and leg to a box (block tightening, with the segment's box as
// the block's). At r = distance / 2 it must reject most separated pairs,
// so a helper that never rejects fails too.
TEST(BoxesFartherThanTest, NeverRejectsAtTheComputedDistance) {
  constexpr int kPairsPerFamily = 20000;
  const std::pair<PairFamily, const char*> kFamilies[] = {
      {PairFamily::kRandom, "random"},
      {PairFamily::kNearlyCollinear, "nearly_collinear"},
      {PairFamily::kAxisAligned, "axis_aligned"},
      {PairFamily::kPointLeg, "point_leg"},
      {PairFamily::kPointSegment, "point_segment"},
      {PairFamily::kHugeCoordinates, "1e7_coordinates"},
  };
  uint64_t seed = 20261017;
  for (const auto& [family, name] : kFamilies) {
    Rng rng(seed++);
    int wrong = 0;
    int separated = 0;
    int rejected_at_half = 0;
    for (int i = 0; i < kPairsPerFamily; ++i) {
      const SegmentPair p = GeneratePair(family, rng);
      const BoundingBox segment = SegmentBounds(p.a, p.b);
      const BoundingBox leg = SegmentBounds(p.c, p.d);
      const auto check = [&](const char* form, double distance,
                             const BoundingBox& x, const BoundingBox& y) {
        if (BoxesFartherThan(x, y, distance) && ++wrong <= 3) {
          ADD_FAILURE() << std::setprecision(17) << name << " pair " << i
                        << " " << form << " rejected at its distance "
                        << distance << ": a=(" << p.a.x << ", " << p.a.y
                        << ") b=(" << p.b.x << ", " << p.b.y << ") c=("
                        << p.c.x << ", " << p.c.y << ") d=(" << p.d.x << ", "
                        << p.d.y << ")";
        }
        if (distance > 0.0) {
          ++separated;
          rejected_at_half += BoxesFartherThan(x, y, distance / 2.0) ? 1 : 0;
        }
      };
      check("segment", SegmentToSegmentDistance(p.a, p.b, p.c, p.d), leg,
            segment);
      if (p.c == p.d) {
        check("waypoint", PointToSegmentDistance(p.c, p.a, p.b), leg,
              segment);
      }
      check("box", SegmentToBoxDistance(p.c, p.d, segment), leg, segment);
    }
    EXPECT_EQ(wrong, 0) << name;
    EXPECT_GT(rejected_at_half, separated / 2)
        << name << ": " << rejected_at_half << " of " << separated;
  }
}

}  // namespace
}  // namespace stcomp
