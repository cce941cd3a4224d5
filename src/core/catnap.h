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
// framing Catnip uses (§5.2), so Catnap and Catnip applications interoperate. The
// framing, pending ops and Cancel are StreamQueue's, shared with plain Catnip; Catnap
// keeps its control path (socket, bind, listen, batched accept, connect, close) and
// its byte-stream steps: one write(2) of the element it copied at push time, and
// read(2)s gated on socket readiness.

#ifndef SRC_CORE_CATNAP_H_
#define SRC_CORE_CATNAP_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/fifo.h"
#include "src/core/libos.h"
#include "src/core/stream_queue.h"
#include "src/kernel/kernel.h"

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

// A kernel TCP socket as a Demikernel queue: StreamQueue frames the elements, and
// every byte crosses the kernel boundary through read(2) and write(2) with a copy.
class CatnapSocketQueue final : public StreamQueue {
 public:
  CatnapSocketQueue(SimKernel* kernel, int fd) : kernel_(kernel), fd_(fd) {}

  Status Bind(std::uint16_t port) override;
  Status Listen() override;
  Result<std::unique_ptr<IoQueue>> TryAccept() override;
  Status StartConnect(Endpoint remote) override;
  Status ConnectStatus() override;
  Status Close() override;

 private:
  bool HasStream() const override { return !listening_; }
  std::vector<Buffer> Frame(const SgArray& sga) override;
  Result<std::size_t> WriteSome(std::span<const Buffer> parts) override;
  bool ReadAvailable(FrameDecoder& decoder) override;
  Status ReadClosed(const Status& decode_error) override;

  SimKernel* kernel_;
  int fd_;
  bool listening_ = false;
  // Listener-side: fds drained by the last AcceptBatch crossing, handed out one per
  // TryAccept call so the idle-poll path pays one crossing per backlog, not per conn.
  Fifo<int> accepted_fds_;
  bool peer_eof_ = false;
  Status read_error_;
};

}  // namespace demi

#endif  // SRC_CORE_CATNAP_H_
