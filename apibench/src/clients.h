// Long-lived client connections for the load driver.
//
// Clients run on hosts that do not charge the simulated clock. Each connection
// keeps one pop armed; answers arrive in request order and are matched to the
// oldest outstanding request, checked by the rig's `check`, and reported to the
// driver. Completions are claimed off each client libOS's ready ring.

#ifndef APIBENCH_SRC_CLIENTS_H_
#define APIBENCH_SRC_CLIENTS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "apibench/src/driver.h"
#include "apibench/src/trace.h"
#include "src/core/libos.h"

namespace apibench {

class Clients final : public demi::Poller {
 public:
  struct Pending {
    std::uint64_t id = 0;   // driver request id
    std::uint64_t seq = 0;  // per-connection sequence
    std::uint64_t a = 0;    // rig-defined expectation
    std::uint64_t b = 0;
  };
  // True when `answer` is the right answer to `p`; `why` explains a mismatch.
  using Check = std::function<bool(const Pending& p, const demi::SgArray& answer,
                                   std::string* why)>;

  Clients(demi::Simulation& sim, Check check) : sim_(sim), check_(std::move(check)) {
    sim_.AddPoller(this);
  }
  ~Clients() override { sim_.RemovePoller(this); }
  Clients(const Clients&) = delete;
  Clients& operator=(const Clients&) = delete;

  // Starts a connection; Poll() arms its first pop once it is established.
  std::size_t Connect(demi::LibOS& libos, demi::Endpoint remote) {
    const std::size_t lib = LibIndex(libos);
    auto qd = libos.Socket();
    DEMI_CHECK(qd.ok());
    Conn conn;
    conn.lib = lib;
    conn.qd = *qd;
    conns_.push_back(conn);
    auto& by_qd = by_qd_[lib];
    if (by_qd.size() <= static_cast<std::size_t>(*qd)) {
      by_qd.resize(static_cast<std::size_t>(*qd) + 1, SIZE_MAX);
    }
    by_qd[static_cast<std::size_t>(*qd)] = conns_.size() - 1;
    if (!libos.ConnectAsync(*qd, remote).ok()) {
      conns_.back().dead = true;
    }
    return conns_.size() - 1;
  }

  // Sends one request on `conn` for the driver's current arrival.
  void Send(Driver* driver, std::size_t conn_index, const demi::SgArray& request,
            Kind kind, std::uint64_t a, std::uint64_t b) {
    Conn& conn = conns_[conn_index];
    Pending p;
    p.id = driver->Begin(kind);
    p.seq = conn.next_seq++;
    p.a = a;
    p.b = b;
    if (conn.dead || !conn.connected) {
      driver->Fail(p.id);
      return;
    }
    Span span("core.client_push", static_cast<std::uint64_t>(conn_index) << 32 | p.seq);
    if (!libs_[conn.lib]->Push(conn.qd, request).ok()) {
      driver->Fail(p.id);
      return;
    }
    conn.pending.push_back(p);
  }

  bool Poll() override {
    bool progress = false;
    demi::ReadyCompletion rc;
    for (std::size_t lib = 0; lib < libs_.size(); ++lib) {
      while (libs_[lib]->PopReady(&rc)) {
        progress = true;
        const auto slot = static_cast<std::size_t>(rc.qd);
        if (rc.qd < 0 || slot >= by_qd_[lib].size() || by_qd_[lib][slot] == SIZE_MAX) {
          continue;
        }
        const std::size_t index = by_qd_[lib][slot];
        Conn& conn = conns_[index];
        if (rc.op == demi::OpType::kConnect) {
          conn.connected = rc.result.status.ok();
          conn.dead = !conn.connected;
          ++settled_;
          if (conn.connected) {
            ArmPop(index);
          }
        } else if (rc.op == demi::OpType::kPush) {
          if (!rc.result.status.ok()) {
            ++push_failures_;
          }
        } else if (rc.op == demi::OpType::kPop) {
          OnAnswer(index, rc.result);
        }
      }
    }
    return progress;
  }

  // Closes every connection (pending pops fail and are discarded).
  void CloseAll() {
    closing_ = true;
    for (Conn& conn : conns_) {
      if (!conn.dead) {
        // Closing a queue does not retire its armed pop; cancel it first so
        // the libOS drains to zero pending operations.
        if (conn.pop != demi::kInvalidQToken) {
          (void)libs_[conn.lib]->CancelOp(conn.pop);
        }
        (void)libs_[conn.lib]->Close(conn.qd);
        conn.dead = true;
      }
    }
  }

  void set_driver(Driver* driver) { driver_ = driver; }
  std::size_t settled() const { return settled_; }  // connects finished
  std::size_t connected() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) {
      n += c.connected && !c.dead ? 1 : 0;
    }
    return n;
  }
  std::uint64_t push_failures() const { return push_failures_; }
  std::uint64_t lost_connections() const { return lost_; }
  std::uint64_t unexpected_answers() const { return unexpected_; }
  const std::vector<demi::LibOS*>& liboses() const { return libs_; }
  demi::LibOS& libos(std::size_t conn) { return *libs_[conns_[conn].lib]; }

 private:
  struct Conn {
    std::size_t lib = 0;
    demi::QDesc qd = demi::kInvalidQDesc;
    bool connected = false;
    bool dead = false;
    demi::QToken pop = demi::kInvalidQToken;  // the armed pop
    std::uint64_t next_seq = 0;
    std::deque<Pending> pending;
  };

  std::size_t LibIndex(demi::LibOS& libos) {
    for (std::size_t i = 0; i < libs_.size(); ++i) {
      if (libs_[i] == &libos) {
        return i;
      }
    }
    libs_.push_back(&libos);
    by_qd_.emplace_back();
    return libs_.size() - 1;
  }

  void ArmPop(std::size_t index) {
    Conn& conn = conns_[index];
    Span span("core.client_pop", static_cast<std::uint64_t>(index) << 32 | conn.next_seq);
    auto pop = libs_[conn.lib]->Pop(conn.qd);
    conn.pop = pop.ok() ? *pop : demi::kInvalidQToken;
    if (!pop.ok()) {
      FailConnection(index);
    }
  }

  void FailConnection(std::size_t index) {
    Conn& conn = conns_[index];
    if (!closing_) {
      ++lost_;
    }
    conn.dead = true;
    while (!conn.pending.empty()) {
      if (driver_ != nullptr) {
        driver_->Fail(conn.pending.front().id);
      }
      conn.pending.pop_front();
    }
  }

  void OnAnswer(std::size_t index, const demi::QResult& result) {
    Conn& conn = conns_[index];
    conn.pop = demi::kInvalidQToken;
    if (!result.status.ok()) {
      if (!conn.dead) {
        FailConnection(index);
      }
      return;
    }
    if (conn.pending.empty() || driver_ == nullptr) {
      ++unexpected_;
      ArmPop(index);
      return;
    }
    const Pending p = conn.pending.front();
    conn.pending.pop_front();
    Span span("driver.client_completion", static_cast<std::uint64_t>(index) << 32 | p.seq);
    std::string why;
    if (check_(p, result.sga, &why)) {
      driver_->Complete(p.id, index, p.seq);
    } else {
      driver_->Wrong(p.id, why);
    }
    ArmPop(index);
  }

  demi::Simulation& sim_;
  Check check_;
  Driver* driver_ = nullptr;
  std::vector<demi::LibOS*> libs_;
  std::vector<std::vector<std::size_t>> by_qd_;  // per libOS: qd -> connection
  std::vector<Conn> conns_;
  std::size_t settled_ = 0;
  std::uint64_t push_failures_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t unexpected_ = 0;
  bool closing_ = false;
};

// Records a violation for client pushes that failed, connections lost before
// teardown and answers nobody asked for.
inline void CheckClientHealth(const Clients& clients, WindowResult& r) {
  if (clients.push_failures() > 0) {
    Violation(r, std::to_string(clients.push_failures()) + " client pushes failed");
  }
  if (clients.lost_connections() > 0) {
    Violation(r, std::to_string(clients.lost_connections()) + " client connections lost");
  }
  if (clients.unexpected_answers() > 0) {
    Violation(r, std::to_string(clients.unexpected_answers()) + " unexpected answers");
  }
}

}  // namespace apibench

#endif  // APIBENCH_SRC_CLIENTS_H_
