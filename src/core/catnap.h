// Catnap: the portability library OS — Demikernel queues over legacy kernel sockets.
//
// Catnap exists so applications written against the Demikernel interface run on hosts
// with NO kernel-bypass hardware at all (the paper's portability goal: "unmodified as
// devices continue to evolve"). Every push/pop still pays the traditional tax —
// syscalls, kernel stack, copies — so Catnap matches the POSIX baseline in cost while
// keeping the application identical to the Catnip/Catmint versions. Experiment E1
// shows exactly this: Catnap ≈ baseline, Catnip/Catmint ≫ both.
//
// Queue elements travel over the kernel TCP byte stream with the same length-prefix
// framing Catnip uses (§5.2), so Catnap and Catnip applications interoperate.

#ifndef SRC_CORE_CATNAP_H_
#define SRC_CORE_CATNAP_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/libos.h"
#include "src/kernel/kernel.h"
#include "src/net/framing.h"

namespace demi {

class CatnapLibOS final : public LibOS {
 public:
  CatnapLibOS(HostCpu* host, SimKernel* kernel);

  std::string name() const override { return "catnap"; }
  SimKernel& kernel() { return *kernel_; }

 protected:
  Result<std::unique_ptr<IoQueue>> NewSocketQueue() override;

 private:
  SimKernel* kernel_;
};

class CatnapSocketQueue final : public IoQueue {
 public:
  CatnapSocketQueue(SimKernel* kernel, HostCpu* host, int fd)
      : kernel_(kernel), host_(host), fd_(fd) {}

  Status StartPush(QToken token, const SgArray& sga) override;
  Status StartPop(QToken token) override;
  bool Progress(CompletionSink& sink) override;

  Status Bind(std::uint16_t port) override;
  Status Listen() override;
  Result<std::unique_ptr<IoQueue>> TryAccept() override;
  Status StartConnect(Endpoint remote) override;
  Status ConnectStatus() override;
  Status Cancel(QToken token) override;
  Status Close() override;

 private:
  struct PendingPush {
    QToken token;
    Buffer unwritten;      // the framed element's bytes not yet written
    bool started = false;  // part of the frame is in the stream: not cancellable
  };

  SimKernel* kernel_;
  HostCpu* host_;
  int fd_;
  bool listening_ = false;
  bool closed_ = false;
  // Listener-side: fds drained by the last AcceptBatch crossing, handed out one per
  // TryAccept call so the idle-poll path pays one crossing per backlog, not per conn.
  std::deque<int> accepted_fds_;
  FrameDecoder decoder_;
  bool peer_eof_ = false;
  Status stream_error_;
  std::deque<PendingPush> pending_pushes_;
  std::deque<QToken> pending_pops_;
};

}  // namespace demi

#endif  // SRC_CORE_CATNAP_H_
