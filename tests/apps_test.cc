// Tests for the application layer: RESP codec (incremental + zero-copy), the KV
// engine, and workload generation.

#include <gtest/gtest.h>

#include <string>

#include "src/apps/kv.h"
#include "src/apps/resp.h"
#include "src/apps/workload.h"

namespace demi {
namespace {

// --- RESP encoding/decoding ---

TEST(RespTest, EncodeCommandWireFormat) {
  EXPECT_EQ(EncodeRespCommand({"GET", "k"}), "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
}

TEST(RespTest, ParseWholeCommandRoundTrip) {
  const RespCommand in = {"SET", "key", "value with spaces"};
  auto out = ParseRespCommand(EncodeRespCommand(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(RespTest, ParseRejectsTruncation) {
  const std::string wire = EncodeRespCommand({"GET", "key"});
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_FALSE(ParseRespCommand(wire.substr(0, cut)).ok()) << "cut at " << cut;
  }
}

TEST(RespTest, ParseRejectsTrailingGarbage) {
  EXPECT_FALSE(ParseRespCommand(EncodeRespCommand({"PING"}) + "x").ok());
}

TEST(RespTest, BuffersVariantSlicesWithoutCopy) {
  const RespCommand in = {"SET", "key", "value"};
  Buffer wire = Buffer::CopyOf(EncodeRespCommand(in));
  auto args = ParseRespCommandBuffers(wire);
  ASSERT_TRUE(args.ok());
  ASSERT_EQ(args->size(), 3u);
  EXPECT_EQ((*args)[0].AsStringView(), "SET");
  EXPECT_EQ((*args)[2].AsStringView(), "value");
  // Zero copy: args alias the wire buffer's storage.
  EXPECT_EQ((*args)[2].storage(), wire.storage());
}

TEST(RespTest, IncrementalParserHandlesSplitRequests) {
  const std::string wire = EncodeRespCommand({"SET", "abc", "def"});
  std::string stream = wire.substr(0, 7);
  auto r1 = NextRespCommand(stream);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->has_value());  // the wasted scan of §3.2
  EXPECT_EQ(stream, wire.substr(0, 7));
  stream += wire.substr(7);
  auto r2 = NextRespCommand(stream);
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->has_value());
  EXPECT_EQ(**r2, (RespCommand{"SET", "abc", "def"}));
  EXPECT_TRUE(stream.empty());
}

TEST(RespTest, IncrementalParserPipelinedRequests) {
  std::string stream = EncodeRespCommand({"PING"}) + EncodeRespCommand({"GET", "x"});
  auto r1 = NextRespCommand(stream);
  ASSERT_TRUE(r1.ok() && r1->has_value());
  EXPECT_EQ(**r1, (RespCommand{"PING"}));
  auto r2 = NextRespCommand(stream);
  ASSERT_TRUE(r2.ok() && r2->has_value());
  EXPECT_EQ(**r2, (RespCommand{"GET", "x"}));
  EXPECT_TRUE(stream.empty());
  auto r3 = NextRespCommand(stream);
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->has_value());
}

TEST(RespTest, IncrementalParserRejectsGarbage) {
  std::string stream = "GARBAGE\r\n";
  EXPECT_FALSE(NextRespCommand(stream).ok());
}

TEST(RespTest, ValueEncodings) {
  EXPECT_EQ(EncodeRespValue(RespValue::Simple("OK")), "+OK\r\n");
  EXPECT_EQ(EncodeRespValue(RespValue::Error("ERR x")), "-ERR x\r\n");
  EXPECT_EQ(EncodeRespValue(RespValue::Integer(-7)), ":-7\r\n");
  EXPECT_EQ(EncodeRespValue(RespValue::Bulk("hi")), "$2\r\nhi\r\n");
  EXPECT_EQ(EncodeRespValue(RespValue::Nil()), "$-1\r\n");
}

TEST(RespTest, ResponseParserRoundTripsAllKinds) {
  for (const RespValue& v :
       {RespValue::Simple("OK"), RespValue::Error("ERR bad"), RespValue::Integer(42),
        RespValue::Bulk("payload"), RespValue::Nil()}) {
    RespResponseParser parser;
    parser.Feed(EncodeRespValue(v));
    auto r = parser.Next();
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, v);
  }
}

TEST(RespTest, ResponseParserHandlesSplitBulk) {
  RespResponseParser parser;
  const std::string wire = EncodeRespValue(RespValue::Bulk("split-value"));
  parser.Feed(wire.substr(0, 5));
  auto r1 = parser.Next();
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->has_value());
  parser.Feed(wire.substr(5));
  auto r2 = parser.Next();
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r2->has_value());
  EXPECT_EQ((*r2)->text, "split-value");
}

// --- KvEngine ---

struct KvRig {
  KvRig() : sim(), host(&sim, "kv"), engine(&host) {}
  Simulation sim;
  HostCpu host;
  KvEngine engine;
};

TEST(KvEngineTest, SetGetRoundTrip) {
  KvRig rig;
  EXPECT_EQ(rig.engine.Execute({"SET", "k", "v"}), RespValue::Simple("OK"));
  EXPECT_EQ(rig.engine.Execute({"GET", "k"}), RespValue::Bulk("v"));
}

TEST(KvEngineTest, GetMissingIsNil) {
  KvRig rig;
  EXPECT_EQ(rig.engine.Execute({"GET", "nope"}), RespValue::Nil());
}

TEST(KvEngineTest, DelRemovesAndCounts) {
  KvRig rig;
  (void)rig.engine.Execute({"SET", "a", "1"});
  (void)rig.engine.Execute({"SET", "b", "2"});
  EXPECT_EQ(rig.engine.Execute({"DEL", "a", "b", "c"}), RespValue::Integer(2));
  EXPECT_EQ(rig.engine.Execute({"EXISTS", "a"}), RespValue::Integer(0));
}

TEST(KvEngineTest, IncrDecrArithmetic) {
  KvRig rig;
  EXPECT_EQ(rig.engine.Execute({"INCR", "n"}), RespValue::Integer(1));
  EXPECT_EQ(rig.engine.Execute({"INCR", "n"}), RespValue::Integer(2));
  EXPECT_EQ(rig.engine.Execute({"DECR", "n"}), RespValue::Integer(1));
  (void)rig.engine.Execute({"SET", "s", "not-a-number"});
  EXPECT_EQ(rig.engine.Execute({"INCR", "s"}).kind, RespValue::Kind::kError);
}

TEST(KvEngineTest, AppendAndStrlen) {
  KvRig rig;
  EXPECT_EQ(rig.engine.Execute({"APPEND", "k", "abc"}), RespValue::Integer(3));
  EXPECT_EQ(rig.engine.Execute({"APPEND", "k", "def"}), RespValue::Integer(6));
  EXPECT_EQ(rig.engine.Execute({"GET", "k"}), RespValue::Bulk("abcdef"));
  EXPECT_EQ(rig.engine.Execute({"STRLEN", "k"}), RespValue::Integer(6));
}

TEST(KvEngineTest, MsetDbsizeFlushall) {
  KvRig rig;
  EXPECT_EQ(rig.engine.Execute({"MSET", "a", "1", "b", "2"}), RespValue::Simple("OK"));
  EXPECT_EQ(rig.engine.Execute({"DBSIZE"}), RespValue::Integer(2));
  EXPECT_EQ(rig.engine.Execute({"FLUSHALL"}), RespValue::Simple("OK"));
  EXPECT_EQ(rig.engine.Execute({"DBSIZE"}), RespValue::Integer(0));
}

TEST(KvEngineTest, PingEchoUnknown) {
  KvRig rig;
  EXPECT_EQ(rig.engine.Execute({"PING"}), RespValue::Simple("PONG"));
  EXPECT_EQ(rig.engine.Execute({"ECHO", "hey"}), RespValue::Bulk("hey"));
  EXPECT_EQ(rig.engine.Execute({"BOGUS"}).kind, RespValue::Kind::kError);
}

TEST(KvEngineTest, ChargesPaperCalibratedCpuPerRequest) {
  KvRig rig;
  const TimeNs before = rig.sim.now();
  (void)rig.engine.Execute({"GET", "k"});
  EXPECT_EQ(rig.sim.now() - before, rig.sim.cost().kv_request_cpu_ns);  // the 2 us of §3.2
}

TEST(KvEngineTest, GetReplyReferencesStoredValueBuffer) {
  KvRig rig;
  Buffer value = Buffer::CopyOf("stored-value");
  RespArgs set_args = {Buffer::CopyOf("SET"), Buffer::CopyOf("k"), value};
  (void)rig.engine.Execute(std::span<const Buffer>(set_args));
  RespArgs get_args = {Buffer::CopyOf("GET"), Buffer::CopyOf("k")};
  KvReply reply = rig.engine.Execute(std::span<const Buffer>(get_args));
  ASSERT_EQ(reply.kind, RespValue::Kind::kBulk);
  // Zero copy: the reply aliases the SET's value buffer (§4.5).
  EXPECT_EQ(reply.bulk.storage(), value.storage());
}

// --- workload ---

TEST(WorkloadTest, DeterministicForSeed) {
  KvWorkloadConfig cfg;
  cfg.seed = 99;
  KvWorkload a(cfg), b(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(WorkloadTest, RespectsSizes) {
  KvWorkloadConfig cfg;
  cfg.key_bytes = 24;
  cfg.value_bytes = 128;
  cfg.get_ratio = 0.0;  // all SETs
  KvWorkload w(cfg);
  const RespCommand cmd = w.Next();
  ASSERT_EQ(cmd.size(), 3u);
  EXPECT_EQ(cmd[0], "SET");
  EXPECT_EQ(cmd[1].size(), 24u);
  EXPECT_EQ(cmd[2].size(), 128u);
}

TEST(WorkloadTest, GetRatioApproximatelyHonored) {
  KvWorkloadConfig cfg;
  cfg.get_ratio = 0.9;
  KvWorkload w(cfg);
  for (int i = 0; i < 10000; ++i) {
    (void)w.Next();
  }
  const double ratio = static_cast<double>(w.gets_issued()) /
                       static_cast<double>(w.gets_issued() + w.sets_issued());
  EXPECT_NEAR(ratio, 0.9, 0.02);
}

TEST(WorkloadTest, LoadCommandsCoverKeys) {
  KvWorkloadConfig cfg;
  cfg.num_keys = 10;
  KvWorkload w(cfg);
  const RespCommand load = w.LoadCommand(7);
  EXPECT_EQ(load[0], "SET");
  EXPECT_NE(load[1].find("key"), std::string::npos);
}

}  // namespace
}  // namespace demi
