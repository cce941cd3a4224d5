// Server and client actors for the experiments: echo and KV, each in three
// architectural styles —
//   Demi*:  Demikernel queues (any libOS: Catnap/Catnip/Catmint),
//   Posix*: legacy-kernel sockets + epoll (the Figure 1 left-side baseline),
//   Mtcp*:  user-level stack that keeps the POSIX API (the §6 comparator).
//
// Each API has one server loop and one client loop (DemiServer, DemiClient,
// PosixServer, PosixClient). Echo and KV override only the hooks that turn a
// request into a reply and make or take one, so §3.2's contrast is the same
// application on two loops.
//
// Actors are simulation Pollers: they run "inside" the simulated hosts and never call
// blocking waits; benches drive them with Simulation::RunUntil. Clients are closed
// loops recording per-request latency in simulated time; they usually live on
// non-clock-charging hosts so only server+network time is measured.

#ifndef SRC_APPS_ACTORS_H_
#define SRC_APPS_ACTORS_H_

#include <string>
#include <vector>

#include "src/apps/kv.h"
#include "src/apps/resp.h"
#include "src/apps/workload.h"
#include "src/baseline/mtcp.h"
#include "src/common/histogram.h"
#include "src/core/libos.h"
#include "src/kernel/kernel.h"

namespace demi {

// What every closed-loop client reports: one request in flight, latency from its
// first send attempt to its whole reply, done after `target_requests` replies or at
// the first failure (a refused connect, a broken read or push, a bad reply).
class ClosedLoopClient : public Poller {
 public:
  bool done() const { return done_; }
  bool failed() const { return failed_; }
  std::uint64_t completed() const { return completed_; }
  Histogram& latency() { return latency_; }

 protected:
  explicit ClosedLoopClient(std::uint64_t target_requests) : target_(target_requests) {}

  // Records one reply; true, and the client is done, once the target is met.
  bool Complete(TimeNs latency) {
    latency_.Record(static_cast<std::uint64_t>(latency));
    done_ = ++completed_ >= target_;
    return done_;
  }
  void Fail() {
    failed_ = true;
    done_ = true;
  }

 private:
  std::uint64_t target_;
  std::uint64_t completed_ = 0;
  bool done_ = false;
  bool failed_ = false;
  Histogram latency_;
};

// --- Demikernel actors ---

// Accepts connections, keeps one pop outstanding on each, and pushes Reply(request)
// once the connection's previous reply has been handed off.
class DemiServer : public Poller {
 public:
  DemiServer(LibOS* libos, std::uint16_t port);
  ~DemiServer() override;
  DemiServer(const DemiServer&) = delete;
  DemiServer& operator=(const DemiServer&) = delete;
  bool Poll() override;
  // Requests whose reply push the libOS accepted.
  std::uint64_t served() const { return served_; }

 protected:
  virtual SgArray Reply(const SgArray& request) = 0;

  LibOS* libos_;

 private:
  struct Conn {
    QDesc qd;
    QToken pop = kInvalidQToken;
    QToken push = kInvalidQToken;
    bool dead = false;
  };
  QDesc listen_qd_ = kInvalidQDesc;
  QToken accept_token_ = kInvalidQToken;
  std::vector<Conn> conns_;
  std::uint64_t served_ = 0;
};

// Connects, then pushes NextRequest() and pops its reply, one at a time.
class DemiClient : public ClosedLoopClient {
 public:
  DemiClient(LibOS* libos, Endpoint server, std::uint64_t target_requests);
  ~DemiClient() override;
  DemiClient(const DemiClient&) = delete;
  DemiClient& operator=(const DemiClient&) = delete;
  bool Poll() override;

 protected:
  virtual SgArray NextRequest() = 0;
  // False fails the run: `reply` does not answer the request.
  virtual bool Accept(const SgArray& reply) { return true; }

  LibOS* libos_;

 private:
  enum class State { kConnecting, kSend, kWaitPush, kWaitPop };
  QDesc qd_ = kInvalidQDesc;
  QToken token_ = kInvalidQToken;
  State state_ = State::kConnecting;
  TimeNs sent_at_ = 0;
};

class DemiEchoServer final : public DemiServer {
 public:
  using DemiServer::DemiServer;

 private:
  // Echo: the very same sga goes back — zero copies, by construction.
  SgArray Reply(const SgArray& request) override { return request; }
};

class DemiEchoClient final : public DemiClient {
 public:
  DemiEchoClient(LibOS* libos, Endpoint server, std::size_t msg_bytes,
                 std::uint64_t target_requests)
      : DemiClient(libos, server, target_requests), msg_bytes_(msg_bytes) {}

 private:
  SgArray NextRequest() override;
  bool Accept(const SgArray& reply) override { return reply.total_bytes() == msg_bytes_; }

  std::size_t msg_bytes_;
};

class DemiKvServer final : public DemiServer {
 public:
  DemiKvServer(LibOS* libos, std::uint16_t port)
      : DemiServer(libos, port), engine_(&libos->host()) {}
  KvEngine& engine() { return engine_; }

 private:
  SgArray Reply(const SgArray& request) override;

  KvEngine engine_;
};

class DemiKvClient final : public DemiClient {
 public:
  DemiKvClient(LibOS* libos, Endpoint server, KvWorkload* workload,
               std::uint64_t target_requests)
      : DemiClient(libos, server, target_requests), workload_(workload) {}

 private:
  SgArray NextRequest() override;

  KvWorkload* workload_;
};

// --- POSIX (legacy kernel) actors ---

// Accepts and reads through epoll, hands each ready connection's bytes to Consume,
// and flushes what it staged, keeping any unwritten tail for the next poll.
class PosixServer : public Poller {
 public:
  PosixServer(SimKernel* kernel, std::uint16_t port);
  ~PosixServer() override;
  PosixServer(const PosixServer&) = delete;
  PosixServer& operator=(const PosixServer&) = delete;
  bool Poll() override;
  std::uint64_t served() const { return served_; }

 protected:
  // Moves every complete request off the front of `inbox` and appends its reply to
  // `outbox`, counting it in served_. False closes the connection (malformed input).
  virtual bool Consume(std::string& inbox, std::string& outbox) = 0;

  SimKernel* kernel_;
  std::uint64_t served_ = 0;

 private:
  struct Conn {
    int fd;
    std::string inbox;
    std::string outbox;
    bool dead = false;
  };
  void CloseConn(Conn& conn);

  int listen_fd_ = -1;
  int epfd_ = -1;
  std::vector<Conn> conns_;
};

// Connects, writes NextRequest() in `fragments` writes `fragment_gap_ns` apart
// (the trickling sender of experiment C2), then reads with ReadReply until the
// reply is whole.
class PosixClient : public ClosedLoopClient {
 public:
  PosixClient(SimKernel* kernel, Endpoint server, std::uint64_t target_requests,
              int fragments = 1, TimeNs fragment_gap_ns = 0);
  ~PosixClient() override;
  PosixClient(const PosixClient&) = delete;
  PosixClient& operator=(const PosixClient&) = delete;
  bool Poll() override;

 protected:
  virtual std::string NextRequest() = 0;
  // Reads what has arrived: true once the reply is whole, false while it is not,
  // an error when the connection broke or the reply is malformed.
  virtual Result<bool> ReadReply() = 0;
  // ReadSock on the connection; bytes read make this poll count as progress.
  Result<Buffer> Read(std::size_t max_bytes);

 private:
  enum class State { kConnecting, kSend, kReceive };
  SimKernel* kernel_;
  int fragments_;
  TimeNs fragment_gap_ns_;
  int fd_ = -1;
  State state_ = State::kConnecting;
  std::string wire_;  // request being sent
  std::size_t wire_sent_ = 0;
  TimeNs next_write_at_ = 0;
  TimeNs sent_at_ = 0;
  bool read_any_ = false;  // Read returned bytes during this poll
};

class PosixEchoServer final : public PosixServer {
 public:
  PosixEchoServer(SimKernel* kernel, std::uint16_t port, std::size_t msg_bytes)
      : PosixServer(kernel, port), msg_bytes_(msg_bytes) {}

 private:
  bool Consume(std::string& inbox, std::string& outbox) override;

  std::size_t msg_bytes_;
};

class PosixEchoClient final : public PosixClient {
 public:
  PosixEchoClient(SimKernel* kernel, Endpoint server, std::size_t msg_bytes,
                  std::uint64_t target_requests)
      : PosixClient(kernel, server, target_requests), msg_bytes_(msg_bytes) {}

 private:
  std::string NextRequest() override { return std::string(msg_bytes_, 'p'); }
  Result<bool> ReadReply() override;

  std::size_t msg_bytes_;
  std::size_t received_ = 0;
};

class PosixKvServer final : public PosixServer {
 public:
  PosixKvServer(SimKernel* kernel, std::uint16_t port)
      : PosixServer(kernel, port), engine_(&kernel->host()) {}

  KvEngine& engine() { return engine_; }
  // §3.2: wasted partial-request inspections.
  std::uint64_t incomplete_scans() const { return incomplete_scans_; }

 private:
  bool Consume(std::string& inbox, std::string& outbox) override;

  KvEngine engine_;
  std::uint64_t incomplete_scans_ = 0;
};

class PosixKvClient final : public PosixClient {
 public:
  PosixKvClient(SimKernel* kernel, Endpoint server, KvWorkload* workload,
                std::uint64_t target_requests, int fragments = 1,
                TimeNs fragment_gap_ns = 0)
      : PosixClient(kernel, server, target_requests, fragments, fragment_gap_ns),
        workload_(workload) {}

 private:
  std::string NextRequest() override { return EncodeRespCommand(workload_->Next()); }
  Result<bool> ReadReply() override;

  KvWorkload* workload_;
  RespResponseParser responses_;
};

// --- mTCP-style actors ---

class MtcpEchoServer final : public Poller {
 public:
  MtcpEchoServer(MtcpStack* stack, std::uint16_t port, std::size_t msg_bytes);
  ~MtcpEchoServer() override;
  bool Poll() override;
  std::uint64_t served() const { return served_; }

 private:
  struct Conn {
    int fd;
    std::string inbox;
    bool dead = false;
  };
  MtcpStack* stack_;
  std::size_t msg_bytes_;
  int listen_fd_ = -1;
  std::vector<Conn> conns_;
  std::uint64_t served_ = 0;
};

}  // namespace demi

#endif  // SRC_APPS_ACTORS_H_
