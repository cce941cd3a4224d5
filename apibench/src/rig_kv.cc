// kv-zipf: RESP key-value service over plain Catnip on one server core.
//
// ~256 long-lived connections from a few client hosts send 90% GET / 10% SET
// over Zipf(0.99)-popular keys with 64 B values. Every key is owned by one
// connection, so a connection's in-order service makes the right answer to a
// GET exact: the value of the last SET of that key issued before it. Values
// encode their key and version, and every GET answer is compared byte for byte.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apibench/src/clients.h"
#include "apibench/src/driver.h"
#include "apibench/src/server_loop.h"
#include "apibench/src/trace.h"
#include "src/apps/kv.h"
#include "src/apps/resp.h"
#include "src/core/harness.h"

namespace apibench {
namespace {

constexpr std::uint16_t kKvPort = 6379;
constexpr std::size_t kValueBytes = 64;
constexpr std::uint64_t kKeys = 100000;
constexpr double kZipfTheta = 0.99;
constexpr double kSetShare = 0.1;
constexpr std::size_t kConnections = 256;
constexpr int kClientHosts = 4;

std::string KeyName(std::uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key:%010llu", static_cast<unsigned long long>(key));
  return buf;
}

// The 64 B value of `key` at `version`: a readable header plus a filler derived
// from both, so a stale or misrouted value never matches.
std::string ValueOf(std::uint64_t key, std::uint64_t version) {
  char head[kValueBytes + 1];
  const int n = std::snprintf(head, sizeof(head), "k%010llu;v%010llu;",
                              static_cast<unsigned long long>(key),
                              static_cast<unsigned long long>(version));
  std::string v(head, static_cast<std::size_t>(n));
  std::uint64_t h = Fnv(Fnv(kFnvBasis, key), version);
  while (v.size() < kValueBytes) {
    v.push_back(static_cast<char>('a' + h % 26));
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return v;
}

class KvRig final : public Rig {
 public:
  explicit KvRig(std::uint64_t seed)
      : seed_(seed),
        rng_(seed * 0x9E3779B97F4A7C15ULL + 0x6b76),
        zipf_(kKeys, kZipfTheta),
        versions_(kKeys, 0) {}

  void Setup() override {
    demi::FabricConfig fabric;
    fabric.seed = seed_;
    env_ = std::make_unique<demi::TestHarness>(demi::CostModel{}, fabric);
    demi::HostOptions sopts;
    sopts.with_kernel = false;
    server_ = &env_->AddHost("server", "10.0.0.1", sopts);
    demi::CatnipLibOS& slibos = env_->Catnip(*server_);
    // 256 mostly idle connections: poll the dirty set, not every queue per step.
    slibos.EnableSparsePolling();
    engine_ = std::make_unique<demi::KvEngine>(server_->cpu.get());
    loop_ = std::make_unique<ServerLoop>(
        slibos, kKvPort,
        [this](const demi::SgArray& request, std::uint64_t req) { return Serve(request, req); });

    // Preload every key at version 0 (control path; counted as set-up).
    const demi::Buffer set_op = demi::Buffer::CopyOf(std::string_view("SET"));
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const demi::Buffer args[3] = {set_op, demi::Buffer::CopyOf(KeyName(k)),
                                    demi::Buffer::CopyOf(ValueOf(k, 0))};
      (void)engine_->Execute(std::span<const demi::Buffer>(args, 3));
    }

    clients_ = std::make_unique<Clients>(
        env_->sim(), [this](const Clients::Pending& p, const demi::SgArray& answer,
                            std::string* why) { return Check(p, answer, why); });
    std::vector<demi::CatnipLibOS*> client_libs;
    for (int h = 0; h < kClientHosts; ++h) {
      demi::HostOptions copts;
      copts.with_kernel = false;
      copts.charges_clock = false;
      auto& host = env_->AddHost("client" + std::to_string(h),
                                 "10.0.1." + std::to_string(h + 1), copts);
      demi::CatnipLibOS& lib = env_->Catnip(host);
      lib.EnableSparsePolling();
      client_libs.push_back(&lib);
    }
    for (std::size_t i = 0; i < kConnections; ++i) {
      clients_->Connect(*client_libs[i % client_libs.size()],
                        demi::Endpoint{server_->ip, kKvPort});
    }
    const bool up = env_->RunUntil(
        [&] { return clients_->settled() == kConnections && loop_->accepted() == kConnections; },
        env_->sim().now() + 10 * demi::kSecond);
    DEMI_CHECK(up && clients_->connected() == kConnections);
  }

  demi::Simulation& sim() override { return env_->sim(); }

  std::vector<Stream> Streams(Driver* driver) override {
    driver_ = driver;
    clients_->set_driver(driver);
    return {Stream{1.0, [this] { Issue(); }}};
  }

  LayerSample Sample() override { return SampleCpus(env_->sim(), {server_->cpu.get()}); }

  void Finish(WindowResult& r, bool full_checks) override {
    const std::vector<demi::LibOS*> clients = clients_->liboses();
    clients_->CloseAll();
    env_->RunUntil([&] { return loop_->open_connections() == 0; },
                   env_->sim().now() + 1 * demi::kSecond);
    loop_->StopAccepting();
    env_->sim().RunFor(10 * demi::kMicrosecond);
    std::vector<demi::LibOS*> all = clients;
    all.push_back(&loop_->libos());
    CheckDrained(all, 0, r);
    CheckClientHealth(*clients_, r);
    if (loop_->push_failures() > 0) {
      Violation(r, "server push failed");
    }
    CheckCapabilities(env_->sim(), r);
  }

 private:
  void Issue() {
    const std::uint64_t key = zipf_.Next(rng_);
    const bool set = rng_.NextDouble() < kSetShare;
    const std::size_t conn = static_cast<std::size_t>(Fnv(kFnvBasis, key) % kConnections);
    std::string wire;
    if (set) {
      const std::uint64_t version = ++versions_[key];
      wire = demi::EncodeRespCommand({"SET", KeyName(key), ValueOf(key, version)});
    } else {
      wire = demi::EncodeRespCommand({"GET", KeyName(key)});
    }
    demi::LibOS& lib = clients_->libos(conn);
    demi::SgArray sga;
    {
      Span span("memory.client_sgaalloc");
      sga = lib.SgaAlloc(wire.size());
    }
    std::memcpy(sga.segment(0).mutable_data(), wire.data(), wire.size());
    clients_->Send(driver_, conn, sga, set ? kWrite : kRead, key,
                   (versions_[key] << 1) | (set ? 1 : 0));
  }

  bool Check(const Clients::Pending& p, const demi::SgArray& answer, std::string* why) {
    const bool set = (p.b & 1) != 0;
    const std::string got = answer.ToString();
    const std::string want =
        set ? std::string("+OK\r\n") : "$64\r\n" + ValueOf(p.a, p.b >> 1) + "\r\n";
    if (got != want) {
      *why = (set ? "SET " : "GET ") + KeyName(p.a) + " answered '" + got.substr(0, 40) +
             "', want '" + want.substr(0, 40) + "'";
      return false;
    }
    return true;
  }

  // The server's work for one request: parse the RESP element, run it, encode
  // the reply (the value segment references the stored value; no copy).
  demi::SgArray Serve(const demi::SgArray& request, std::uint64_t req) {
    auto args = [&] {
      Span span("apps.parse", req);
      return demi::ParseRespCommandBuffers(
          request.segment_count() == 1 ? request.segment(0) : request.Flatten());
    }();
    demi::KvReply reply;
    if (args.ok()) {
      Span span("apps.execute", req);
      reply = engine_->Execute(*args);
    } else {
      reply.kind = demi::RespValue::Kind::kError;
      reply.text = "ERR protocol error";
    }
    Span span("apps.encode", req);
    if (reply.kind == demi::RespValue::Kind::kBulk) {
      demi::SgArray sga;
      sga.Append(demi::Buffer::CopyOf("$" + std::to_string(reply.bulk.size()) + "\r\n"));
      sga.Append(reply.bulk);
      sga.Append(demi::Buffer::CopyOf(std::string_view("\r\n")));
      return sga;
    }
    return demi::SgArray(demi::Buffer::CopyOf(demi::EncodeRespValue(reply.ToValue())));
  }

  std::uint64_t seed_;
  demi::Rng rng_;
  demi::ZipfGenerator zipf_;
  std::vector<std::uint64_t> versions_;  // last SET version issued per key
  Driver* driver_ = nullptr;
  std::unique_ptr<demi::TestHarness> env_;
  demi::TestHarness::Host* server_ = nullptr;
  std::unique_ptr<demi::KvEngine> engine_;
  std::unique_ptr<ServerLoop> loop_;
  std::unique_ptr<Clients> clients_;
};

}  // namespace

std::unique_ptr<Rig> MakeKvRig(std::uint64_t seed) {
  return std::make_unique<KvRig>(seed);
}

}  // namespace apibench
