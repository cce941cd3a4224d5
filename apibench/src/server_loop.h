// The benchmark's own request loop over one libOS: accept, pop, answer, push.
//
// The loop is a simulation poller that claims completions off the libOS ready
// ring (LibOS::PopReady) and accounts one application wakeup per claimed
// completion, as a poll-mode Demikernel application would. Each connection
// keeps exactly one pop armed, re-armed after its request is answered, so a
// connection's requests are served in order.

#ifndef APIBENCH_SRC_SERVER_LOOP_H_
#define APIBENCH_SRC_SERVER_LOOP_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "apibench/src/trace.h"
#include "src/common/logging.h"
#include "src/core/libos.h"

namespace apibench {

class ServerLoop final : public demi::Poller {
 public:
  // Builds the reply to one request; `req` is (qd << 32 | per-connection seq).
  using Handler = std::function<demi::SgArray(const demi::SgArray& request, std::uint64_t req)>;

  ServerLoop(demi::LibOS& libos, std::uint16_t port, Handler handler)
      : libos_(libos), handler_(std::move(handler)) {
    auto qd = libos_.Socket();
    DEMI_CHECK(qd.ok());
    listen_qd_ = *qd;
    DEMI_CHECK(libos_.Bind(listen_qd_, port).ok());
    DEMI_CHECK(libos_.Listen(listen_qd_).ok());
    ArmAccept();
    libos_.sim().AddPoller(this);
  }
  ~ServerLoop() override { libos_.sim().RemovePoller(this); }
  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  bool Poll() override {
    bool progress = false;
    demi::ReadyCompletion rc;
    while (libos_.PopReady(&rc)) {
      progress = true;
      libos_.host().Count(demi::Counter::kWakeups);
      switch (rc.op) {
        case demi::OpType::kAccept:
          HandleAccept(rc);
          break;
        case demi::OpType::kPop:
          HandlePop(rc);
          break;
        case demi::OpType::kPush:
          if (!rc.result.status.ok()) {
            ++push_failures_;
          }
          break;
        case demi::OpType::kConnect:
          break;
      }
    }
    return progress;
  }

  // Cancels the armed accept so the libOS can drain to zero pending operations.
  void StopAccepting() {
    stopping_ = true;
    if (accept_token_ != demi::kInvalidQToken) {
      (void)libos_.CancelOp(accept_token_);
      accept_token_ = demi::kInvalidQToken;
    }
  }

  std::uint64_t accepted() const { return accepted_; }
  std::size_t open_connections() const { return seq_.size(); }
  std::uint64_t push_failures() const { return push_failures_; }
  demi::LibOS& libos() { return libos_; }

 private:
  void ArmAccept() {
    Span span("core.accept");
    auto token = libos_.AcceptAsync(listen_qd_);
    accept_token_ = token.ok() ? *token : demi::kInvalidQToken;
  }

  void HandleAccept(demi::ReadyCompletion& rc) {
    Span span("driver.server_completion");
    accept_token_ = demi::kInvalidQToken;
    if (rc.result.status.ok()) {
      ++accepted_;
      seq_[rc.result.new_qd] = 0;
      Span pop("core.pop", static_cast<std::uint64_t>(rc.result.new_qd) << 32);
      (void)libos_.Pop(rc.result.new_qd);
    }
    if (!stopping_) {
      ArmAccept();
    }
  }

  void HandlePop(demi::ReadyCompletion& rc) {
    const demi::QDesc qd = rc.qd;
    if (!rc.result.status.ok()) {
      // End of stream or a dead connection: retire it.
      Span span("driver.server_completion");
      seq_.erase(qd);
      Span close("core.close");
      (void)libos_.Close(qd);
      return;
    }
    const std::uint64_t req = static_cast<std::uint64_t>(qd) << 32 | seq_[qd]++;
    Span span("driver.server_completion", req);
    demi::SgArray reply = handler_(rc.result.sga, req);
    {
      Span push("core.push", req);
      if (!libos_.Push(qd, reply).ok()) {
        ++push_failures_;
      }
    }
    Span pop("core.pop", req + 1);
    (void)libos_.Pop(qd);
  }

  demi::LibOS& libos_;
  Handler handler_;
  demi::QDesc listen_qd_ = demi::kInvalidQDesc;
  demi::QToken accept_token_ = demi::kInvalidQToken;
  bool stopping_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t push_failures_ = 0;
  std::unordered_map<demi::QDesc, std::uint64_t> seq_;  // open connections
};

}  // namespace apibench

#endif  // APIBENCH_SRC_SERVER_LOOP_H_
