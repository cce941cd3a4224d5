// MtcpStack: an mTCP/F-stack-style user-level TCP that PRESERVES the POSIX API.
//
// This is the §3.2/§6 comparator: it removes syscalls (the stack lives in the
// process), but keeps the legacy abstraction, so it still pays
//   - a copy on every read and write (POSIX buffer semantics), and
//   - a batching delay between the application and stack contexts: mTCP runs the TCP
//     stack on a separate logical thread and exchanges requests/events in batches,
//     which is how it achieves throughput — and why the paper found its LATENCY to be
//     higher than the Linux kernel's ("We explored mTCP but found it to be too
//     expensive; its latency was higher than the Linux kernel's", §6).
//
// Cost signature per op: libos_call (no crossing) + copy + mtcp_batch_delay_ns of
// added latency each way. Experiment C5 sweeps this against the kernel and Catnip.

#ifndef SRC_BASELINE_MTCP_H_
#define SRC_BASELINE_MTCP_H_

#include <deque>
#include <memory>
#include <unordered_map>

#include "src/common/result.h"
#include "src/net/stack.h"

namespace demi {

struct MtcpConfig {
  Ipv4Address ip;
  TcpConfig tcp;
  std::uint64_t seed = 21;
  TimeNs batch_delay_ns = -1;  // negative: use cost model's mtcp_batch_delay_ns
};

class MtcpStack final : public Poller {
 public:
  MtcpStack(HostCpu* host, SimNic* nic, MtcpConfig config);
  ~MtcpStack() override;
  MtcpStack(const MtcpStack&) = delete;
  MtcpStack& operator=(const MtcpStack&) = delete;

  Result<int> Socket();
  Status Bind(int fd, std::uint16_t port);
  Status Listen(int fd);
  Result<int> Accept(int fd);  // kWouldBlock when empty

  // POSIX read: copies matured (batch-delayed) bytes into a fresh buffer.
  Result<Buffer> Read(int fd, std::size_t max);
  // POSIX write: copies and hands to the stack thread; transmitted after the batch
  // delay. Returns bytes accepted.
  Result<std::size_t> Write(int fd, Buffer data);
  // POSIX close: the fd is free at once; the connection closes after the batch delay,
  // behind the fd's writes.
  Status CloseFd(int fd);

  bool Readable(int fd) const;
  HostCpu& host() { return *host_; }
  NetStack& net() { return *net_; }  // test/stat access

  // Moves arrived stream data into per-fd staging with maturity timestamps.
  bool Poll() override;

 private:
  struct FdEntry {
    enum class Kind { kFree, kSocket, kListener } kind = Kind::kFree;
    TcpConnection* conn = nullptr;
    TcpListener* listener = nullptr;
    std::uint16_t bound_port = 0;
    std::deque<std::pair<TimeNs, Buffer>> staged;  // (visible_at, data)
    std::size_t staged_bytes = 0;
  };

  TimeNs BatchDelay() const;
  FdEntry* Entry(int fd);
  const FdEntry* Entry(int fd) const;
  int AllocFd();

  HostCpu* host_;
  std::unique_ptr<NetStack> net_;
  MtcpConfig config_;
  std::vector<FdEntry> fds_;
};

}  // namespace demi

#endif  // SRC_BASELINE_MTCP_H_
