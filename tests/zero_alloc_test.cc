// Acceptance spot-check for the zero-copy data path (DESIGN.md §11): once
// a Workspace and output IndexList have grown to steady state, repeated
// run_view calls perform zero heap allocations. Verified by replacing the
// global allocation functions with counting wrappers and asserting a zero
// delta across the hot loop for the paper's flagship algorithms.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "stcomp/algo/registry.h"
#include "test_util.h"

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stcomp {
namespace {

TEST(ZeroAllocTest, ViewEntryPointsAreAllocationFreeOnceWarm) {
  const Trajectory trajectory = testutil::RandomWalk(400, 99);
  for (const char* name : {"opw-tr", "td-tr"}) {
    const algo::AlgorithmInfo& info = *algo::FindAlgorithm(name).value();
    algo::AlgorithmParams params;
    params.epsilon_m = 25.0;
    algo::Workspace workspace;
    algo::IndexList kept;
    // Warm-up: grows every scratch buffer and the output to final size.
    info.run_view(trajectory, params, workspace, kept);
    const algo::IndexList expected = kept;
    ASSERT_GE(expected.size(), 2u) << name;

    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    for (int i = 0; i < 5; ++i) {
      info.run_view(trajectory, params, workspace, kept);
    }
    g_counting.store(false, std::memory_order_relaxed);

    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u) << name;
    EXPECT_EQ(kept, expected) << name;
  }
}

TEST(ZeroAllocTest, WarmWorkspaceServesSmallerInputsWithoutAllocating) {
  // Buffers only grow: after running on a large trajectory, a smaller one
  // must fit in the existing scratch with no further allocation.
  const Trajectory large = testutil::RandomWalk(400, 5);
  const Trajectory small = testutil::RandomWalk(50, 6);
  const algo::AlgorithmInfo& info = *algo::FindAlgorithm("td-tr").value();
  const algo::AlgorithmParams params;
  algo::Workspace workspace;
  algo::IndexList kept;
  info.run_view(large, params, workspace, kept);

  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  info.run_view(small, params, workspace, kept);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace stcomp
