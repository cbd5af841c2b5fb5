// Unit tests for src/util: Status, Result, IdSet, Rng, byte helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>

#include "util/bytes.h"
#include "util/deadline_queue.h"
#include "util/id_set.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace prague {
namespace {

TEST(StopwatchTest, ResolvesSubMicrosecondIntervals) {
  // Reading a fresh stopwatch takes well under a microsecond on a
  // nanosecond steady clock; a whole-microsecond stopwatch reads 0 here.
  bool sub_micro = false;
  for (int i = 0; i < 1000 && !sub_micro; ++i) {
    Stopwatch timer;
    const double s = timer.ElapsedSeconds();
    sub_micro = s > 0 && s < 1e-6;
  }
  EXPECT_TRUE(sub_micro);
}

TEST(StopwatchTest, UnitsAgree) {
  Stopwatch timer;
  const int64_t ns = timer.ElapsedNanos();
  EXPECT_GE(ns, 0);
  EXPECT_GE(timer.ElapsedMicros(), ns / 1000);
  EXPECT_GE(timer.ElapsedSeconds(), static_cast<double>(ns) / 1e9);
}

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad alpha");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad alpha");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad alpha");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    PRAGUE_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), Status::Code::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kIOError);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(IdSetTest, ConstructorSortsAndDedupes) {
  IdSet s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToVector(), (std::vector<GraphId>{1, 3, 5}));
}

TEST(IdSetTest, Universe) {
  IdSet s = IdSet::Universe(4);
  EXPECT_EQ(s.ToVector(), (std::vector<GraphId>{0, 1, 2, 3}));
}

TEST(IdSetTest, Contains) {
  IdSet s({2, 4, 6});
  EXPECT_TRUE(s.Contains(4));
  EXPECT_FALSE(s.Contains(5));
}

TEST(IdSetTest, InsertKeepsOrder) {
  IdSet s({1, 5});
  s.Insert(3);
  s.Insert(3);  // idempotent
  EXPECT_EQ(s.ToVector(), (std::vector<GraphId>{1, 3, 5}));
}

TEST(IdSetTest, Erase) {
  IdSet s({1, 3, 5});
  s.Erase(3);
  s.Erase(99);  // no-op
  EXPECT_EQ(s.ToVector(), (std::vector<GraphId>{1, 5}));
}

TEST(IdSetTest, SetAlgebra) {
  IdSet a({1, 2, 3, 4});
  IdSet b({3, 4, 5});
  EXPECT_EQ(a.Intersect(b).ToVector(), (std::vector<GraphId>{3, 4}));
  EXPECT_EQ(a.Union(b).ToVector(), (std::vector<GraphId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(a.Subtract(b).ToVector(), (std::vector<GraphId>{1, 2}));
}

TEST(IdSetTest, InPlaceAlgebra) {
  IdSet a({1, 2, 3});
  a.IntersectWith(IdSet({2, 3, 4}));
  EXPECT_EQ(a.ToVector(), (std::vector<GraphId>{2, 3}));
  a.UnionWith(IdSet({9}));
  EXPECT_EQ(a.ToVector(), (std::vector<GraphId>{2, 3, 9}));
  a.SubtractWith(IdSet({3}));
  EXPECT_EQ(a.ToVector(), (std::vector<GraphId>{2, 9}));
}

TEST(IdSetTest, SubsetOf) {
  IdSet a({2, 4});
  IdSet b({1, 2, 3, 4});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(IdSet().IsSubsetOf(a));
}

TEST(IdSetTest, IntersectWithEmpty) {
  IdSet a({1, 2});
  EXPECT_TRUE(a.Intersect(IdSet()).empty());
}

TEST(IdSetTest, ToString) {
  EXPECT_EQ(IdSet({1, 2}).ToString(), "{1, 2}");
  EXPECT_EQ(IdSet().ToString(), "{}");
}

// ---- Property tests for the merge/gallop intersection fast paths ----
//
// Every IdSet operation is checked against a std::set-based reference
// model, on both balanced inputs (merge path) and heavily skewed ones
// (size ratio ≥ kGallopRatio forces the galloping path).

std::vector<GraphId> RandomIds(Rng* rng, size_t count, GraphId universe) {
  std::vector<GraphId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<GraphId>(rng->Below(universe)));
  }
  return ids;
}

std::set<GraphId> AsSet(const IdSet& s) {
  return std::set<GraphId>(s.begin(), s.end());
}

void CheckAlgebraAgainstReference(const IdSet& a, const IdSet& b) {
  std::set<GraphId> ra = AsSet(a), rb = AsSet(b);
  std::vector<GraphId> want_inter, want_union, want_diff;
  std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(want_inter));
  std::set_union(ra.begin(), ra.end(), rb.begin(), rb.end(),
                 std::back_inserter(want_union));
  std::set_difference(ra.begin(), ra.end(), rb.begin(), rb.end(),
                      std::back_inserter(want_diff));

  EXPECT_EQ(a.Intersect(b).ToVector(), want_inter);
  EXPECT_EQ(b.Intersect(a).ToVector(), want_inter);  // commutes across paths
  EXPECT_EQ(a.Union(b).ToVector(), want_union);
  EXPECT_EQ(a.Subtract(b).ToVector(), want_diff);

  IdSet in_place = a;
  in_place.IntersectWith(b);
  EXPECT_EQ(in_place.ToVector(), want_inter);
  in_place = a;
  in_place.UnionWith(b);
  EXPECT_EQ(in_place.ToVector(), want_union);
  in_place = a;
  in_place.SubtractWith(b);
  EXPECT_EQ(in_place.ToVector(), want_diff);
}

TEST(IdSetPropertyTest, BalancedRoundsMatchReferenceModel) {
  Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    GraphId universe = static_cast<GraphId>(rng.Between(1, 2000));
    IdSet a(RandomIds(&rng, rng.Below(400), universe));
    IdSet b(RandomIds(&rng, rng.Below(400), universe));
    CheckAlgebraAgainstReference(a, b);
  }
}

TEST(IdSetPropertyTest, SkewedRoundsForceGallopPath) {
  Rng rng(4048);
  for (int round = 0; round < 30; ++round) {
    GraphId universe = static_cast<GraphId>(rng.Between(100, 50000));
    size_t small_n = rng.Below(20);
    // Large side at least kGallopRatio times bigger than the small side.
    size_t large_n = (small_n + 1) * IdSet::kGallopRatio * 4;
    IdSet small(RandomIds(&rng, small_n, universe));
    IdSet large(RandomIds(&rng, large_n, universe));
    CheckAlgebraAgainstReference(small, large);
  }
}

TEST(IdSetPropertyTest, GallopEdgeCases) {
  // Small side entirely past the large side's range.
  IdSet past({1000, 1001});
  std::vector<GraphId> dense;
  for (GraphId i = 0; i < 512; ++i) dense.push_back(i);
  IdSet big(dense);
  EXPECT_TRUE(past.Intersect(big).empty());
  // Small side entirely before it.
  IdSet before({0});
  IdSet high_ids([] {
    std::vector<GraphId> v;
    for (GraphId i = 100; i < 612; ++i) v.push_back(i);
    return v;
  }());
  EXPECT_TRUE(before.Intersect(high_ids).empty());
  // Exact hits at both ends of the large side.
  IdSet ends({0, 511});
  EXPECT_EQ(ends.Intersect(big).ToVector(), (std::vector<GraphId>{0, 511}));
}

TEST(IdSetPropertyTest, SelfAliasingInPlaceOps) {
  IdSet a({1, 2, 3});
  a.IntersectWith(a);
  EXPECT_EQ(a.ToVector(), (std::vector<GraphId>{1, 2, 3}));
  a.UnionWith(a);
  EXPECT_EQ(a.ToVector(), (std::vector<GraphId>{1, 2, 3}));
  a.SubtractWith(a);
  EXPECT_TRUE(a.empty());
}

TEST(IdSetPropertyTest, IntersectManyMatchesPairwiseFolds) {
  Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    size_t k = rng.Between(1, 6);
    std::vector<IdSet> sets;
    for (size_t i = 0; i < k; ++i) {
      sets.emplace_back(RandomIds(&rng, rng.Below(300), 500));
    }
    std::vector<const IdSet*> ptrs;
    for (const IdSet& s : sets) ptrs.push_back(&s);
    IdSet folded = sets[0];
    for (size_t i = 1; i < k; ++i) folded.IntersectWith(sets[i]);
    EXPECT_EQ(IdSet::IntersectMany(ptrs), folded);
  }
}

TEST(IdSetPropertyTest, IntersectManyIgnoresNullsAndHandlesEmpty) {
  IdSet a({1, 2, 3}), b({2, 3, 4});
  EXPECT_EQ(IdSet::IntersectMany({&a, nullptr, &b}).ToVector(),
            (std::vector<GraphId>{2, 3}));
  EXPECT_TRUE(IdSet::IntersectMany({}).empty());
  EXPECT_TRUE(IdSet::IntersectMany({nullptr}).empty());
  IdSet empty;
  EXPECT_TRUE(IdSet::IntersectMany({&a, &empty, &b}).empty());
  EXPECT_EQ(IdSet::IntersectMany({&a}).ToVector(), a.ToVector());
}

TEST(IdSetPropertyTest, SliceMatchesFilter) {
  Rng rng(91);
  for (int round = 0; round < 20; ++round) {
    IdSet set(RandomIds(&rng, rng.Below(200), 400));
    GraphId a = static_cast<GraphId>(rng.Below(450));
    GraphId b = static_cast<GraphId>(rng.Below(450));
    if (a > b) std::swap(a, b);
    std::vector<GraphId> expected;
    for (GraphId id : set) {
      if (id >= a && id < b) expected.push_back(id);
    }
    EXPECT_EQ(set.Slice(a, b).ToVector(), expected);
  }
}

TEST(IdSetPropertyTest, SliceSharesBufferWhenFullyContained) {
  IdSet set({10, 11, 40});
  IdSet whole = set.Slice(0, 100);
  EXPECT_TRUE(whole.SharesStorageWith(set));
  // A strict sub-range copies.
  IdSet part = set.Slice(11, 100);
  EXPECT_FALSE(part.SharesStorageWith(set));
  EXPECT_EQ(part.ToVector(), (std::vector<GraphId>{11, 40}));
  // Degenerate ranges are empty.
  EXPECT_TRUE(set.Slice(50, 40).empty());
  EXPECT_TRUE(set.Slice(12, 12).empty());
  EXPECT_TRUE(IdSet().Slice(0, 100).empty());
}

TEST(TaskGroupTest, WaitsOnlyOnItsOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  {
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i) {
      group.Submit([&] { ran.fetch_add(1); });
    }
    EXPECT_TRUE(group.WaitAll().ok());
    EXPECT_EQ(ran.load(), 64);
  }
  // Two groups on one shared pool do not entangle: each WaitAll() returns
  // once its own tasks are done, regardless of the other group's backlog.
  TaskGroup a(&pool);
  TaskGroup b(&pool);
  std::atomic<int> a_ran{0}, b_ran{0};
  for (int i = 0; i < 16; ++i) {
    a.Submit([&] { a_ran.fetch_add(1); });
    b.Submit([&] { b_ran.fetch_add(1); });
  }
  EXPECT_TRUE(a.WaitAll().ok());
  EXPECT_EQ(a_ran.load(), 16);
  EXPECT_TRUE(b.WaitAll().ok());
  EXPECT_EQ(b_ran.load(), 16);
}

TEST(TaskGroupTest, NullPoolRunsInline) {
  int ran = 0;
  TaskGroup group(nullptr);
  group.Submit([&] { ++ran; });
  EXPECT_EQ(ran, 1);  // already executed, not deferred
  EXPECT_TRUE(group.WaitAll().ok());
}

TEST(TaskGroupTest, CapturesFirstExceptionAsInternalStatus) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.Submit([] { throw std::runtime_error("boom"); });
  group.Submit([] {});
  Status st = group.WaitAll();
  EXPECT_EQ(st.code(), Status::Code::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
  // WaitAll is idempotent and keeps reporting the captured error.
  EXPECT_EQ(group.WaitAll().code(), Status::Code::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.Between(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= x == -2;
    saw_hi |= x == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, WeightedRespectsZeroWeight) {
  Rng rng(5);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Weighted(w), 1u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5};
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(BytesTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(100), "100 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.00 MB");
}

TEST(BytesTest, ToMegabytes) {
  EXPECT_DOUBLE_EQ(ToMegabytes(1024 * 1024), 1.0);
}

TEST(BytesTest, U32CodecIsLittleEndian) {
  uint8_t buf[4];
  EncodeU32LE(0x0A0B0C0Du, buf);
  EXPECT_EQ(buf[0], 0x0Du);
  EXPECT_EQ(buf[1], 0x0Cu);
  EXPECT_EQ(buf[2], 0x0Bu);
  EXPECT_EQ(buf[3], 0x0Au);
  EXPECT_EQ(DecodeU32LE(buf), 0x0A0B0C0Du);
}

TEST(BytesTest, FrameHeaderRoundTrips) {
  for (uint32_t length : {0u, 1u, 513u, kMaxFramePayload}) {
    FrameHeader header{length, 0x51};
    uint8_t buf[kFrameHeaderBytes];
    EncodeFrameHeader(header, buf);
    Result<FrameHeader> back = DecodeFrameHeader(buf, sizeof(buf));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, header);
  }
}

TEST(BytesTest, FrameHeaderRejectsTruncatedBuffer) {
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader({12, 0x52}, buf);
  for (size_t n = 0; n < kFrameHeaderBytes; ++n) {
    Result<FrameHeader> r = DecodeFrameHeader(buf, n);
    ASSERT_FALSE(r.ok()) << n;
    EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
  }
}

TEST(BytesTest, FrameHeaderRejectsOversizedLength) {
  // A corrupted (or hostile) length prefix must not be believed: anything
  // past the cap is Corruption, so a reader never allocates from it.
  uint8_t buf[kFrameHeaderBytes];
  EncodeFrameHeader({kMaxFramePayload + 1, 0x51}, buf);
  Result<FrameHeader> r = DecodeFrameHeader(buf, sizeof(buf));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);

  EncodeU32LE(0xFFFFFFFFu, buf);
  buf[4] = 0x51;
  r = DecodeFrameHeader(buf, sizeof(buf));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kCorruption);
}

TEST(StatusTest, BusyIsItsOwnCode) {
  Status busy = Status::Busy("shed by admission control");
  EXPECT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), Status::Code::kBusy);
  EXPECT_NE(busy.ToString().find("shed"), std::string::npos);
}

TEST(DeadlineQueueTest, PopsInDeadlineOrder) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point base = Clock::now();
  DeadlineQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  queue.Push(base + std::chrono::milliseconds(30), 3);
  queue.Push(base + std::chrono::milliseconds(10), 1);
  queue.Push(base + std::chrono::milliseconds(20), 2);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.earliest(), base + std::chrono::milliseconds(10));
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), 3);
  EXPECT_TRUE(queue.empty());
}

TEST(DeadlineQueueTest, EqualDeadlinesPopFifo) {
  const auto when = std::chrono::steady_clock::now();
  DeadlineQueue<int> queue;
  for (int i = 0; i < 8; ++i) queue.Push(when, i);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(queue.Pop(), i);
}

TEST(DeadlineQueueTest, UnboundedYieldsToEveryRealDeadline) {
  const auto soon =
      std::chrono::steady_clock::now() + std::chrono::seconds(3600);
  DeadlineQueue<int> queue;
  queue.Push(DeadlineQueue<int>::Unbounded(), 99);
  queue.Push(soon, 1);
  queue.Push(DeadlineQueue<int>::Unbounded(), 100);
  EXPECT_EQ(queue.Pop(), 1);
  // Unbounded entries tie-break FIFO among themselves.
  EXPECT_EQ(queue.Pop(), 99);
  EXPECT_EQ(queue.Pop(), 100);
}

TEST(DeadlineQueueTest, MovesValuesOut) {
  DeadlineQueue<std::unique_ptr<int>> queue;
  queue.Push(DeadlineQueue<std::unique_ptr<int>>::Unbounded(),
             std::make_unique<int>(7));
  std::unique_ptr<int> out = queue.Pop();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

}  // namespace
}  // namespace prague
