// storage-mixed: Catfish on an NVMe-class block device, no NIC.
//
// Zipf point lookups in a BlockIndex B-tree (depth >= 4) served by device
// push-down (reads) are mixed with 4 KB durable log appends (writes). Every
// lookup answer is compared with the index entry it names. After the window the
// log is reopened, read back record by record and compared with a digest of
// everything appended.

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apibench/src/driver.h"
#include "apibench/src/trace.h"
#include "src/apps/block_index.h"
#include "src/core/harness.h"

namespace apibench {
namespace {

// One append is one 4 KiB block: the record header plus this payload.
constexpr std::size_t kAppendPayload = 4096 - demi::CatfishFileQueue::kRecordHeader;
// 30000 entries at fanout 8 make a depth-5 tree.
constexpr std::size_t kIndexEntries = 30000;
constexpr std::size_t kFanout = 8;
constexpr double kZipfTheta = 0.99;
constexpr double kWriteShare = 0.2;

std::uint64_t IndexValue(std::uint64_t key) { return Fnv(kFnvBasis, key) >> 1; }

class StorageRig final : public Rig, public demi::Poller {
 public:
  explicit StorageRig(std::uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5707), zipf_(kIndexEntries, kZipfTheta) {}

  ~StorageRig() override {
    if (env_ != nullptr && polling_) {
      env_->sim().RemovePoller(this);
    }
  }

  void Setup() override {
    env_ = std::make_unique<demi::TestHarness>();
    demi::HostOptions opts;
    opts.with_nic = false;
    opts.with_kernel = false;
    opts.with_block_device = true;
    host_ = &env_->AddHost("store", "10.0.0.1", opts);
    demi::CatfishConfig cfg;
    cfg.extent_blocks = 1 << 16;
    libos_ = &env_->Catfish(*host_, cfg);

    std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
    entries.reserve(kIndexEntries);
    for (std::size_t i = 0; i < kIndexEntries; ++i) {
      const std::uint64_t key = 1000 + 7 * static_cast<std::uint64_t>(i);
      entries.emplace_back(key, IndexValue(key));
    }
    auto index = demi::BlockIndex::Build(*libos_, "/index", entries, kFanout);
    DEMI_CHECK(index.ok() && index->depth() >= 4);
    index_ = std::make_unique<demi::BlockIndex>(std::move(*index));
    auto program = libos_->InstallPushdownProgram(demi::BlockIndex::LookupProgram());
    DEMI_CHECK(program.ok());
    program_ = *program;
    auto log = libos_->Creat("/log");
    DEMI_CHECK(log.ok());
    log_qd_ = *log;
    env_->sim().AddPoller(this);
    polling_ = true;
  }

  demi::Simulation& sim() override { return env_->sim(); }

  std::vector<Stream> Streams(Driver* driver) override {
    driver_ = driver;
    return {Stream{1.0 - kWriteShare, [this] { Lookup(); }},
            Stream{kWriteShare, [this] { Append(); }}};
  }

  LayerSample Sample() override { return SampleCpus(env_->sim(), {host_->cpu.get()}); }

  // The application's completion loop: claims lookups and appends off the
  // ready ring and checks them.
  bool Poll() override {
    bool progress = false;
    demi::ReadyCompletion rc;
    while (libos_->PopReady(&rc)) {
      progress = true;
      host_->cpu->Count(demi::Counter::kWakeups);
      auto it = inflight_.find(rc.token);
      if (it == inflight_.end()) {
        Violation(driver_->result(), "completion for an unknown qtoken");
        continue;
      }
      const Op op = it->second;
      inflight_.erase(it);
      Span span("driver.app_completion", op.seq);
      if (!rc.result.status.ok()) {
        driver_->Fail(op.id);
      } else if (op.write) {
        driver_->Complete(op.id, 1, op.seq);
      } else if (demi::BlockIndex::DecodeValue(rc.result.sga) != IndexValue(op.key)) {
        driver_->Wrong(op.id, "lookup of key " + std::to_string(op.key) +
                                  " returned a value that is not its index entry");
      } else {
        driver_->Complete(op.id, 0, op.seq);
      }
    }
    return progress;
  }

  void Finish(WindowResult& r, bool full_checks) override {
    env_->RunUntil([&] { return inflight_.empty(); }, env_->sim().now() + demi::kSecond);
    if (!inflight_.empty()) {
      Violation(r, std::to_string(inflight_.size()) + " storage operations never completed");
    }
    CheckDrained({libos_}, 0, r);
    if (full_checks) {
      ReadBack(r);
    }
    CheckCapabilities(env_->sim(), r);
  }

 private:
  struct Op {
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    std::uint64_t key = 0;
    bool write = false;
  };

  void Lookup() {
    const std::uint64_t key = 1000 + 7 * zipf_.Next(rng_);
    Op op{driver_->Begin(kRead), seq_++, key, false};
    Span span("core.pushdown_read", op.seq);
    auto token = index_->LookupAsync(program_, key);
    if (!token.ok()) {
      driver_->Fail(op.id);
      return;
    }
    inflight_[*token] = op;
  }

  void Append() {
    Op op{driver_->Begin(kWrite), seq_++, 0, true};
    demi::SgArray sga;
    {
      Span span("memory.sgaalloc", op.seq);
      sga = libos_->SgaAlloc(kAppendPayload);
    }
    std::byte* out = sga.segment(0).mutable_data();
    std::uint64_t h = Fnv(kFnvBasis, appends_);
    for (std::size_t i = 0; i < kAppendPayload; i += 8) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      std::memcpy(out + i, &h, std::min<std::size_t>(8, kAppendPayload - i));
    }
    log_digest_ = Digest(log_digest_, sga.segment(0).span());
    ++appends_;
    Span span("core.push", op.seq);
    auto token = libos_->Push(log_qd_, sga);
    if (!token.ok()) {
      driver_->Fail(op.id);
      return;
    }
    inflight_[*token] = op;
  }

  static std::uint64_t Digest(std::uint64_t h, std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      h = (h ^ static_cast<std::uint64_t>(b)) * 1099511628211ULL;
    }
    return h;
  }

  // Reopens the log and pops every record back from the device. The completion
  // loop stops first: blocking pops claim their own completions.
  void ReadBack(WindowResult& r) {
    env_->sim().RemovePoller(this);
    polling_ = false;
    (void)libos_->Close(log_qd_);
    auto qd = libos_->Open("/log");
    if (!qd.ok()) {
      Violation(r, "log could not be reopened");
      return;
    }
    std::uint64_t digest = kFnvBasis;
    for (std::uint64_t i = 0; i < appends_; ++i) {
      auto rec = libos_->BlockingPop(*qd, demi::kSecond);
      if (!rec.ok() || !rec->status.ok()) {
        Violation(r, "log read-back failed at record " + std::to_string(i));
        break;
      }
      const demi::Buffer flat = rec->sga.Flatten();
      digest = Digest(digest, flat.span());
    }
    if (digest != log_digest_) {
      Violation(r, "log read-back digest differs from the appended records");
    }
    (void)libos_->Close(*qd);
    CheckDrained({libos_}, 0, r);
  }

  demi::Rng rng_;
  demi::ZipfGenerator zipf_;
  Driver* driver_ = nullptr;
  std::unique_ptr<demi::TestHarness> env_;
  demi::TestHarness::Host* host_ = nullptr;
  demi::CatfishLibOS* libos_ = nullptr;
  std::unique_ptr<demi::BlockIndex> index_;
  demi::PushdownProgramId program_ = demi::kInvalidPushdownProgram;
  demi::QDesc log_qd_ = demi::kInvalidQDesc;
  std::unordered_map<demi::QToken, Op> inflight_;
  std::uint64_t seq_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t log_digest_ = kFnvBasis;
  bool polling_ = false;
};

}  // namespace

std::unique_ptr<Rig> MakeStorageRig(std::uint64_t seed) {
  return std::make_unique<StorageRig>(seed);
}

}  // namespace apibench
