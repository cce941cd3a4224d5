// Tests for the Demikernel queue machinery: qtokens, wait semantics, and the
// queue()/merge/filter/sort/map/qconnect combinators of Figure 3 — all over in-memory
// queues so the semantics are isolated from any device.

#include <gtest/gtest.h>

#include <string>

#include "src/core/libos.h"

namespace demi {
namespace {

// A libOS with no devices: only queue()/combinators work. Lets us test the shared
// machinery in isolation.
class PureLibOS final : public LibOS {
 public:
  explicit PureLibOS(HostCpu* host) : LibOS(host) {}
  std::string name() const override { return "pure"; }

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override {
    return Status(ErrorCode::kUnsupported, "no device");
  }
};

struct PureRig {
  PureRig() : sim(), host(&sim, "h"), libos(&host) {}
  Simulation sim;
  HostCpu host;
  PureLibOS libos;
};

SgArray Sga(const std::string& s) { return SgArray::FromString(s); }

TEST(QTokenTest, PushThenPopRoundTrip) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  auto push = rig.libos.Push(qd, Sga("element"));
  ASSERT_TRUE(push.ok());
  auto pop = rig.libos.Pop(qd);
  ASSERT_TRUE(pop.ok());

  auto pr = rig.libos.Wait(*push);
  ASSERT_TRUE(pr.ok());
  EXPECT_TRUE(pr->status.ok());
  EXPECT_EQ(pr->op, OpType::kPush);
  EXPECT_EQ(pr->qd, qd);

  auto rr = rig.libos.Wait(*pop);
  ASSERT_TRUE(rr.ok());
  EXPECT_EQ(rr->op, OpType::kPop);
  EXPECT_EQ(rr->sga.ToString(), "element");
}

TEST(QTokenTest, ElementsPopInFifoOrder) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  for (int i = 0; i < 5; ++i) {
    (void)rig.libos.Push(qd, Sga("e" + std::to_string(i)));
  }
  for (int i = 0; i < 5; ++i) {
    auto r = rig.libos.BlockingPop(qd);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->sga.ToString(), "e" + std::to_string(i));
  }
}

TEST(QTokenTest, AtomicUnitPreserved) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  SgArray multi;
  multi.Append(Buffer::CopyOf("part1-"));
  multi.Append(Buffer::CopyOf("part2"));
  (void)rig.libos.BlockingPush(qd, multi);
  auto r = rig.libos.BlockingPop(qd);
  ASSERT_TRUE(r.ok());
  // The element arrives whole — segments and all.
  EXPECT_EQ(r->sga.ToString(), "part1-part2");
}

TEST(QTokenTest, UnknownTokenRejected) {
  PureRig rig;
  EXPECT_EQ(rig.libos.TakeResult(QToken{9999}).code(), ErrorCode::kBadDescriptor);
}

TEST(QTokenTest, BadDescriptorRejected) {
  PureRig rig;
  EXPECT_EQ(rig.libos.Push(QDesc{42}, Sga("x")).code(), ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.libos.Pop(QDesc{42}).code(), ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.libos.Close(QDesc{42}).code(), ErrorCode::kBadDescriptor);
}

TEST(WaitTest, WaitTimesOutOnEmptyQueue) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  auto pop = rig.libos.Pop(qd);
  ASSERT_TRUE(pop.ok());
  auto r = rig.libos.Wait(*pop, 10 * kMicrosecond);
  EXPECT_EQ(r.code(), ErrorCode::kTimedOut);
}

TEST(WaitTest, WaitAnyReturnsFirstCompletion) {
  PureRig rig;
  const QDesc q1 = *rig.libos.QueueCreate();
  const QDesc q2 = *rig.libos.QueueCreate();
  const QToken pop1 = *rig.libos.Pop(q1);
  const QToken pop2 = *rig.libos.Pop(q2);
  // Data arrives on q2 after 5 us of virtual time.
  rig.sim.Schedule(5 * kMicrosecond,
                   [&] { (void)rig.libos.Push(q2, Sga("late arrival")); });
  const QToken tokens[] = {pop1, pop2};
  auto r = rig.libos.WaitAny(tokens, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 1u);  // q2's pop completed
  EXPECT_EQ(r->second.sga.ToString(), "late arrival");
}

TEST(WaitTest, WaitAnyConsumesExactlyOneCompletion) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  (void)rig.libos.Push(qd, Sga("a"));
  (void)rig.libos.Push(qd, Sga("b"));
  const QToken t1 = *rig.libos.Pop(qd);
  const QToken t2 = *rig.libos.Pop(qd);
  const QToken tokens[] = {t1, t2};
  auto first = rig.libos.WaitAny(tokens, kSecond);
  ASSERT_TRUE(first.ok());
  // The other token's completion is still there for its own waiter (§4.4: each
  // completion wakes exactly one waiter, and no completion is lost).
  const QToken other = first->first == 0 ? t2 : t1;
  auto second = rig.libos.Wait(other, kSecond);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->second.sga.ToString(), second->sga.ToString());
}

TEST(WaitTest, WaitOnCompletedTokenRedeemsWithoutStepping) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  (void)rig.libos.Push(qd, Sga("x"));
  const QToken pop = *rig.libos.Pop(qd);
  while (!rig.libos.OpDone(pop)) {
    ASSERT_TRUE(rig.sim.StepOnce());
  }
  // The result is parked in the token's slot; Wait must hand it over immediately
  // without driving the simulation. Only the syscall charge itself (tens of ns) may
  // advance the clock — no polling rounds, no event dispatch.
  const TimeNs before = rig.sim.now();
  auto r = rig.libos.Wait(pop, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "x");
  EXPECT_LT(rig.sim.now() - before, kMicrosecond);
}

TEST(WaitTest, WaitAnyIsFifoAcrossAlreadyCompletedTokens) {
  PureRig rig;
  const QDesc q1 = *rig.libos.QueueCreate();
  const QDesc q2 = *rig.libos.QueueCreate();
  const QToken pop1 = *rig.libos.Pop(q1);
  const QToken pop2 = *rig.libos.Pop(q2);
  // q2's data arrives first, then q1's — so pop2 completes strictly before pop1.
  (void)rig.libos.Push(q2, Sga("completed first"));
  while (!rig.libos.OpDone(pop2)) {
    ASSERT_TRUE(rig.sim.StepOnce());
  }
  (void)rig.libos.Push(q1, Sga("completed second"));
  while (!rig.libos.OpDone(pop1)) {
    ASSERT_TRUE(rig.sim.StepOnce());
  }
  // Both are redeemable; wait_any must return the EARLIER completion even though the
  // later one is listed first (FIFO fairness: no starvation by list position).
  const QToken tokens[] = {pop1, pop2};
  auto r = rig.libos.WaitAny(tokens, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->first, 1u);
  EXPECT_EQ(r->second.sga.ToString(), "completed first");
}

TEST(WaitTest, WaitAllBadTokenMidListConsumesNothing) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  const QToken t1 = *rig.libos.Push(qd, Sga("a"));
  const QToken t2 = *rig.libos.Push(qd, Sga("b"));
  const QToken tokens[] = {t1, QToken{0xDEAD0000DEADu}, t2};
  auto r = rig.libos.WaitAll(tokens, kSecond);
  EXPECT_EQ(r.code(), ErrorCode::kBadDescriptor);
  // The failed call must not have consumed the good tokens' results: both still
  // redeem, and nothing is left pending (no leaked slots).
  EXPECT_TRUE(rig.libos.Wait(t1, kSecond).ok());
  EXPECT_TRUE(rig.libos.Wait(t2, kSecond).ok());
  EXPECT_EQ(rig.libos.pending_ops(), 0u);
}

TEST(QTokenTest, RedeemedTokenStaysStaleAfterSlotReuse) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  (void)rig.libos.Push(qd, Sga("x"));
  const QToken pop = *rig.libos.Pop(qd);
  ASSERT_TRUE(rig.libos.Wait(pop, kSecond).ok());
  // New operations may recycle the redeemed token's slot; the generation tag must
  // keep the old handle invalid rather than aliasing the new op.
  const QToken fresh = *rig.libos.Push(qd, Sga("y"));
  EXPECT_NE(fresh, pop);
  EXPECT_EQ(rig.libos.TakeResult(pop).code(), ErrorCode::kBadDescriptor);
}

TEST(WaitTest, WaitAllCollectsEverything) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  std::vector<QToken> tokens;
  for (int i = 0; i < 4; ++i) {
    tokens.push_back(*rig.libos.Push(qd, Sga(std::to_string(i))));
  }
  auto r = rig.libos.WaitAll(tokens, kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);
  for (const QResult& res : *r) {
    EXPECT_TRUE(res.status.ok());
  }
}

TEST(WaitTest, WakeupAccountingIsOnePerCompletion) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  const std::uint64_t before = rig.host.counters().Get(Counter::kWakeups);
  for (int i = 0; i < 10; ++i) {
    (void)rig.libos.BlockingPush(qd, Sga("x"));
    (void)rig.libos.BlockingPop(qd);
  }
  const std::uint64_t wakeups = rig.host.counters().Get(Counter::kWakeups) - before;
  EXPECT_EQ(wakeups, 20u);  // exactly one per completed operation, no herd
  EXPECT_EQ(rig.host.counters().Get(Counter::kSpuriousWakeups), 0u);
}

// --- combinators ---

TEST(MergeTest, PopSurfacesElementsFromBothInners) {
  PureRig rig;
  const QDesc a = *rig.libos.QueueCreate();
  const QDesc b = *rig.libos.QueueCreate();
  const QDesc merged = *rig.libos.Merge(a, b);
  (void)rig.libos.Push(a, Sga("from-a"));
  (void)rig.libos.Push(b, Sga("from-b"));
  std::multiset<std::string> got;
  got.insert(rig.libos.BlockingPop(merged)->sga.ToString());
  got.insert(rig.libos.BlockingPop(merged)->sga.ToString());
  EXPECT_TRUE(got.contains("from-a"));
  EXPECT_TRUE(got.contains("from-b"));
}

TEST(MergeTest, PushGoesToBothInners) {
  PureRig rig;
  const QDesc a = *rig.libos.QueueCreate();
  const QDesc b = *rig.libos.QueueCreate();
  const QDesc merged = *rig.libos.Merge(a, b);
  auto r = rig.libos.BlockingPush(merged, Sga("dup"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(rig.libos.BlockingPop(a)->sga.ToString(), "dup");
  EXPECT_EQ(rig.libos.BlockingPop(b)->sga.ToString(), "dup");
}

TEST(FilterTest, PopDeliversOnlyPassingElements) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  ElementPredicate starts_with_k{
      [](const SgArray& sga) { return !sga.empty() && sga.ToString()[0] == 'k'; }, 100};
  const QDesc filtered = *rig.libos.Filter(inner, starts_with_k);
  (void)rig.libos.Push(inner, Sga("drop-me"));
  (void)rig.libos.Push(inner, Sga("keep-me"));
  auto r = rig.libos.BlockingPop(filtered);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "keep-me");
}

TEST(FilterTest, FilteredPushNeverReachesInner) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  ElementPredicate pass_k{
      [](const SgArray& sga) { return !sga.empty() && sga.ToString()[0] == 'k'; }, 100};
  const QDesc filtered = *rig.libos.Filter(inner, pass_k);
  ASSERT_TRUE(rig.libos.BlockingPush(filtered, Sga("x-dropped"))->status.ok());
  ASSERT_TRUE(rig.libos.BlockingPush(filtered, Sga("kept"))->status.ok());
  auto r = rig.libos.BlockingPop(inner);
  EXPECT_EQ(r->sga.ToString(), "kept");
}

TEST(FilterTest, CpuFilterChargesHostCost) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  ElementPredicate expensive{[](const SgArray&) { return true; }, 5000};
  const QDesc filtered = *rig.libos.Filter(inner, expensive);
  const std::uint64_t before = rig.host.busy_ns();
  (void)rig.libos.BlockingPush(filtered, Sga("x"));
  EXPECT_GE(rig.host.busy_ns() - before, 5000u);
}

TEST(SortTest, PopsReturnPriorityOrder) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  ElementComparator shorter_first{[](const SgArray& x, const SgArray& y) {
                                    return x.total_bytes() < y.total_bytes();
                                  },
                                  10};
  const QDesc sorted = *rig.libos.Sort(inner, shorter_first);
  (void)rig.libos.BlockingPush(sorted, Sga("medium!"));
  (void)rig.libos.BlockingPush(sorted, Sga("tiny"));
  (void)rig.libos.BlockingPush(sorted, Sga("the longest element"));
  EXPECT_EQ(rig.libos.BlockingPop(sorted)->sga.ToString(), "tiny");
  EXPECT_EQ(rig.libos.BlockingPop(sorted)->sga.ToString(), "medium!");
  EXPECT_EQ(rig.libos.BlockingPop(sorted)->sga.ToString(), "the longest element");
}

TEST(SortTest, DrainsInnerQueueIntoPriorityOrder) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  ElementComparator lexicographic{[](const SgArray& x, const SgArray& y) {
                                    return x.ToString() < y.ToString();
                                  },
                                  10};
  const QDesc sorted = *rig.libos.Sort(inner, lexicographic);
  (void)rig.libos.Push(inner, Sga("b"));
  (void)rig.libos.Push(inner, Sga("a"));
  // Elements trickle from the inner queue; the first pop drains what is available.
  auto first = rig.libos.BlockingPop(sorted);
  ASSERT_TRUE(first.ok());
  auto second = rig.libos.BlockingPop(sorted);
  ASSERT_TRUE(second.ok());
  std::multiset<std::string> got = {first->sga.ToString(), second->sga.ToString()};
  EXPECT_TRUE(got.contains("a"));
  EXPECT_TRUE(got.contains("b"));
}

TEST(MapTest, TransformsOnPopAndPush) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  ElementTransform upper{[](const SgArray& sga) {
                           std::string s = sga.ToString();
                           for (char& c : s) {
                             c = static_cast<char>(std::toupper(c));
                           }
                           return SgArray::FromString(s);
                         },
                         200};
  const QDesc mapped = *rig.libos.MapQueue(inner, upper);
  // Push through the map: inner sees transformed data.
  (void)rig.libos.BlockingPush(mapped, Sga("hello"));
  EXPECT_EQ(rig.libos.BlockingPop(inner)->sga.ToString(), "HELLO");
  // Pop through the map: transformed again.
  (void)rig.libos.Push(inner, Sga("world"));
  EXPECT_EQ(rig.libos.BlockingPop(mapped)->sga.ToString(), "WORLD");
}

// --- combinators over an inner queue that fails ---
//
// Closing the inner queue cancels the combinator's internal pop there (kCancelled);
// later internal pops find no queue (kBadDescriptor). Either way the combinator's
// own pending pop must complete with the error, not wait forever.

// Expects `token` to complete with `code`, and nothing left pending.
void ExpectPopFails(PureRig& rig, QToken token, ErrorCode code) {
  auto r = rig.libos.Wait(token, kMillisecond);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->op, OpType::kPop);
  EXPECT_EQ(r->status.code(), code) << r->status;
}

TEST(FilterTest, PopFailsOnceTheInnerQueueFails) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  const QDesc filtered =
      *rig.libos.Filter(inner, ElementPredicate{[](const SgArray&) { return true; }, 10});
  const QToken pop = *rig.libos.Pop(filtered);
  rig.sim.RunFor(kMicrosecond);  // the filter's internal pop is now pending on inner
  ASSERT_TRUE(rig.libos.Close(inner).ok());
  ExpectPopFails(rig, pop, ErrorCode::kCancelled);
  ExpectPopFails(rig, *rig.libos.Pop(filtered), ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.libos.pending_ops(), 0u);
}

TEST(MapTest, PopFailsOnceTheInnerQueueFails) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  const QDesc mapped = *rig.libos.MapQueue(
      inner, ElementTransform{[](const SgArray& sga) { return sga; }, 10});
  const QToken pop = *rig.libos.Pop(mapped);
  rig.sim.RunFor(kMicrosecond);
  ASSERT_TRUE(rig.libos.Close(inner).ok());
  ExpectPopFails(rig, pop, ErrorCode::kCancelled);
  ExpectPopFails(rig, *rig.libos.Pop(mapped), ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.libos.pending_ops(), 0u);
}

// What the sort queue already holds is served first; the inner failure fails the
// next pop.
TEST(SortTest, PopFailsOnceTheInnerQueueFailsAndTheBufferIsEmpty) {
  PureRig rig;
  const QDesc inner = *rig.libos.QueueCreate();
  const QDesc sorted = *rig.libos.Sort(
      inner, ElementComparator{[](const SgArray&, const SgArray&) { return false; }, 10});
  ASSERT_TRUE(rig.libos.BlockingPush(sorted, Sga("buffered"))->status.ok());
  ASSERT_TRUE(rig.libos.Close(inner).ok());
  const QToken first = *rig.libos.Pop(sorted);
  const QToken second = *rig.libos.Pop(sorted);
  auto r = rig.libos.Wait(first, kMillisecond);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->sga.ToString(), "buffered");
  ExpectPopFails(rig, second, ErrorCode::kBadDescriptor);
  EXPECT_EQ(rig.libos.pending_ops(), 0u);
}

// A merge keeps serving from the inner queue that still works, and fails its pops
// only once both have failed.
TEST(MergeTest, PopFailsOnlyOnceBothInnerQueuesFail) {
  PureRig rig;
  const QDesc a = *rig.libos.QueueCreate();
  const QDesc b = *rig.libos.QueueCreate();
  const QDesc merged = *rig.libos.Merge(a, b);
  const QToken pop = *rig.libos.Pop(merged);
  rig.sim.RunFor(kMicrosecond);
  ASSERT_TRUE(rig.libos.Close(a).ok());
  rig.sim.RunFor(kMicrosecond);
  EXPECT_FALSE(rig.libos.OpDone(pop));
  ASSERT_TRUE(rig.libos.BlockingPush(b, Sga("from-b"))->status.ok());
  auto r = rig.libos.Wait(pop, kMillisecond);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->sga.ToString(), "from-b");

  const QToken last = *rig.libos.Pop(merged);
  rig.sim.RunFor(kMicrosecond);
  ASSERT_TRUE(rig.libos.Close(b).ok());
  ExpectPopFails(rig, last, ErrorCode::kCancelled);
  EXPECT_EQ(rig.libos.pending_ops(), 0u);
}

TEST(QConnectTest, SplicesElementsBetweenQueues) {
  PureRig rig;
  const QDesc in = *rig.libos.QueueCreate();
  const QDesc out = *rig.libos.QueueCreate();
  ASSERT_TRUE(rig.libos.QConnect(in, out).ok());
  for (int i = 0; i < 3; ++i) {
    (void)rig.libos.Push(in, Sga("spliced" + std::to_string(i)));
  }
  for (int i = 0; i < 3; ++i) {
    auto r = rig.libos.BlockingPop(out);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->sga.ToString(), "spliced" + std::to_string(i));
  }
}

TEST(QConnectTest, PipelineFilterThenMap) {
  PureRig rig;
  // source -> filter(starts with 'k') -> map(upper) -> sink, spliced end to end.
  const QDesc source = *rig.libos.QueueCreate();
  const QDesc sink = *rig.libos.QueueCreate();
  ElementPredicate pass_k{
      [](const SgArray& sga) { return !sga.empty() && sga.ToString()[0] == 'k'; }, 50};
  ElementTransform upper{[](const SgArray& sga) {
                           std::string s = sga.ToString();
                           for (char& c : s) {
                             c = static_cast<char>(std::toupper(c));
                           }
                           return SgArray::FromString(s);
                         },
                         50};
  const QDesc filtered = *rig.libos.Filter(source, pass_k);
  const QDesc mapped = *rig.libos.MapQueue(filtered, upper);
  ASSERT_TRUE(rig.libos.QConnect(mapped, sink).ok());

  (void)rig.libos.Push(source, Sga("skip-this"));
  (void)rig.libos.Push(source, Sga("kept-one"));
  auto r = rig.libos.BlockingPop(sink);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "KEPT-ONE");
}

void RunUntilIdle(PureRig& rig) {
  while (rig.sim.StepOnce()) {
  }
}

// Claims every completion left on the ready ring; a splice's internal ops must never
// show up here.
std::size_t ClaimReadyCompletions(LibOS& libos) {
  std::size_t claimed = 0;
  ReadyCompletion done;
  while (libos.PopReady(&done)) {
    ++claimed;
  }
  return claimed;
}

// Splices one element through, so the splice has re-armed its pop on `in`.
void SpliceOneElement(PureRig& rig, QDesc in, QDesc out) {
  ASSERT_TRUE(rig.libos.QConnect(in, out).ok());
  ASSERT_TRUE(rig.libos.BlockingPush(in, Sga("spliced")).ok());
  auto r = rig.libos.BlockingPop(out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "spliced");
  RunUntilIdle(rig);
  EXPECT_EQ(rig.libos.pending_ops(), 1u);  // the splice's pop on `in`
}

TEST(QConnectTest, ClosingTheInputEndsTheSplice) {
  PureRig rig;
  const QDesc in = *rig.libos.QueueCreate();
  const QDesc out = *rig.libos.QueueCreate();
  const std::size_t tokens = rig.libos.live_tokens();
  const std::size_t pending = rig.libos.pending_ops();
  SpliceOneElement(rig, in, out);

  ASSERT_TRUE(rig.libos.Close(in).ok());
  RunUntilIdle(rig);
  EXPECT_EQ(ClaimReadyCompletions(rig.libos), 0u);
  EXPECT_EQ(rig.libos.live_tokens(), tokens);
  EXPECT_EQ(rig.libos.pending_ops(), pending);
  // The output end is still the application's own queue.
  ASSERT_TRUE(rig.libos.BlockingPush(out, Sga("direct")).ok());
  auto r = rig.libos.BlockingPop(out);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "direct");
}

TEST(QConnectTest, ClosingTheOutputEndsTheSplice) {
  PureRig rig;
  const QDesc in = *rig.libos.QueueCreate();
  const QDesc out = *rig.libos.QueueCreate();
  const std::size_t tokens = rig.libos.live_tokens();
  const std::size_t pending = rig.libos.pending_ops();
  SpliceOneElement(rig, in, out);

  ASSERT_TRUE(rig.libos.Close(out).ok());
  RunUntilIdle(rig);
  EXPECT_EQ(ClaimReadyCompletions(rig.libos), 0u);
  EXPECT_EQ(rig.libos.live_tokens(), tokens);
  EXPECT_EQ(rig.libos.pending_ops(), pending);
  // No pop stays armed on `in` for the splice: the application's own pop gets the
  // next element.
  const QToken pop = *rig.libos.Pop(in);
  ASSERT_TRUE(rig.libos.BlockingPush(in, Sga("next")).ok());
  auto r = rig.libos.Wait(pop, 10 * kMicrosecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sga.ToString(), "next");
  RunUntilIdle(rig);
  EXPECT_EQ(ClaimReadyCompletions(rig.libos), 0u);
}

TEST(CloseTest, CloseCancelsPendingPops) {
  PureRig rig;
  const QDesc qd = *rig.libos.QueueCreate();
  const std::size_t before = rig.libos.pending_ops();
  const QToken pop = *rig.libos.Pop(qd);
  ASSERT_TRUE(rig.libos.Close(qd).ok());
  // The queue is gone, so Close itself fails the pop instead of stranding it.
  EXPECT_EQ(rig.libos.pending_ops(), before);
  auto r = rig.libos.Wait(pop, 10 * kMicrosecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kCancelled);
  EXPECT_EQ(r->op, OpType::kPop);
}

TEST(MemoryTest, SgaAllocComesFromTheLibosManager) {
  PureRig rig;
  SgArray sga = rig.libos.SgaAlloc(1024);
  EXPECT_EQ(sga.segment_count(), 1u);
  EXPECT_EQ(sga.total_bytes(), 1024u);
  EXPECT_GE(rig.libos.memory().allocs(), 1u);
}

}  // namespace
}  // namespace demi
