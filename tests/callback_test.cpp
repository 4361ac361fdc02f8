#include "sim/callback.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>

namespace ntier::sim {
namespace {

/// Counts live instances so tests can check every captured object is
/// destroyed exactly once, however the owning Function is moved around.
struct Tracked {
  static int live;
  static int constructed;
  int value;
  explicit Tracked(int v) : value(v) {
    ++live;
    ++constructed;
  }
  Tracked(const Tracked& o) : value(o.value) {
    ++live;
    ++constructed;
  }
  Tracked(Tracked&& o) noexcept : value(o.value) {
    ++live;
    ++constructed;
  }
  ~Tracked() { --live; }
};
int Tracked::live = 0;
int Tracked::constructed = 0;

class CallbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracked::live = 0;
    Tracked::constructed = 0;
  }
  void TearDown() override { EXPECT_EQ(Tracked::live, 0); }
};

TEST_F(CallbackTest, DefaultAndNullAreEmpty) {
  Callback a;
  Callback b = nullptr;
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(a.stored_inline());
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(Callback(null_fn));
  EXPECT_FALSE(Callback(std::function<void()>()));
}

TEST_F(CallbackTest, MoveOnlyCaptureRuns) {
  auto p = std::make_unique<int>(7);
  int seen = 0;
  Callback cb = [p = std::move(p), &seen] { seen = *p; };
  EXPECT_TRUE(cb);
  cb();
  EXPECT_EQ(seen, 7);
}

TEST_F(CallbackTest, SmallCapturesStayInlineLargeOnesGoToTheHeap) {
  int n = 0;
  Callback small = [&n] { ++n; };
  EXPECT_TRUE(small.stored_inline());

  // Exactly at the limit: still inline.
  std::array<char, Callback::kInlineSize - sizeof(int*)> fill{};
  Callback at_limit = [&n, fill] { n += fill[0] + 1; };
  EXPECT_TRUE(at_limit.stored_inline());

  std::array<char, Callback::kInlineSize> big{};
  Callback large = [&n, big] { n += big[0] + 1; };
  EXPECT_FALSE(large.stored_inline());
  EXPECT_TRUE(large);

  small();
  at_limit();
  large();
  EXPECT_EQ(n, 3);

  // Moving keeps the placement.
  Callback moved_small = std::move(small);
  Callback moved_large = std::move(large);
  EXPECT_TRUE(moved_small.stored_inline());
  EXPECT_FALSE(moved_large.stored_inline());
  moved_large();
  EXPECT_EQ(n, 4);
}

TEST_F(CallbackTest, CapturedObjectDestroyedExactlyOnceAcrossMoves) {
  {
    Callback a = [t = Tracked(1)] { (void)t.value; };
    EXPECT_EQ(Tracked::live, 1);
    Callback b = std::move(a);
    Callback c;
    c = std::move(b);
    EXPECT_EQ(Tracked::live, 1);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    EXPECT_TRUE(c);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST_F(CallbackTest, HeapTargetDestroyedExactlyOnceAcrossMoves) {
  {
    std::array<char, 64> pad{};
    Callback a = [t = Tracked(2), pad] { (void)t.value; (void)pad; };
    ASSERT_FALSE(a.stored_inline());
    const int built = Tracked::constructed;
    Callback b = std::move(a);
    Callback c = std::move(b);
    // A heap target moves by pointer: no copies or moves of the capture.
    EXPECT_EQ(Tracked::constructed, built);
    EXPECT_EQ(Tracked::live, 1);
    c();
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST_F(CallbackTest, ReassignmentDestroysThePreviousTarget) {
  Callback cb = [t = Tracked(1)] { (void)t.value; };
  EXPECT_EQ(Tracked::live, 1);
  cb = [t = Tracked(2)] { (void)t.value; };
  EXPECT_EQ(Tracked::live, 1);
  cb = nullptr;
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_FALSE(cb);
  // Self-move leaves the target alone.
  cb = [t = Tracked(3)] { (void)t.value; };
  Callback& self = cb;
  cb = std::move(self);
  EXPECT_TRUE(cb);
  EXPECT_EQ(Tracked::live, 1);
}

TEST_F(CallbackTest, MovedFromIsEmpty) {
  int n = 0;
  Callback a = [&n] { ++n; };
  Callback b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): documented state
  b();
  EXPECT_EQ(n, 1);
}

TEST_F(CallbackTest, ArgumentsAreForwarded) {
  Function<int(int, const std::string&)> add_len =
      [](int a, const std::string& s) { return a + static_cast<int>(s.size()); };
  EXPECT_EQ(add_len(3, "four"), 7);

  // A move-only argument arrives as an rvalue the target can take over.
  Function<int(std::unique_ptr<int>)> take = [](std::unique_ptr<int> p) {
    return *p;
  };
  EXPECT_EQ(take(std::make_unique<int>(9)), 9);

  // References are not copied.
  Function<void(int&)> bump = [](int& x) { ++x; };
  int v = 1;
  bump(v);
  EXPECT_EQ(v, 2);
}

TEST_F(CallbackTest, ConstCallRunsAMutableTarget) {
  const Function<int()> counter = [n = 0]() mutable { return ++n; };
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(counter(), 2);  // the target's state persists between calls
}

TEST_F(CallbackTest, WrapsFunctionPointersAndStdFunction) {
  static int hits = 0;
  hits = 0;
  Callback from_ptr = +[] { ++hits; };
  from_ptr();
  std::function<void()> f = [] { hits += 10; };
  Callback from_std = f;
  from_std();
  EXPECT_EQ(hits, 11);
}

}  // namespace
}  // namespace ntier::sim
