#include "src/core/catfish.h"

#include <cstring>

#include "src/common/byte_order.h"
#include "src/common/checksum.h"
#include "src/common/logging.h"

namespace demi {

CatfishLibOS::CatfishLibOS(HostCpu* host, BlockDevice* bdev, CatfishConfig config)
    : LibOS(host),
      bdev_(bdev),
      config_(std::move(config)),
      retry_rng_(config_.recovery.seed ^ 0xca7f15ull),
      alive_(std::make_shared<bool>(true)) {}

namespace {
// Faults worth retrying: the command may succeed on resubmission. Device death is
// permanent and surfaces immediately.
bool TransientDeviceError(const Status& status) {
  return status.code() == ErrorCode::kTimedOut || status.code() == ErrorCode::kMediaError;
}
}  // namespace

namespace {
// Synthesizes the device-CQ shape for errors produced on the host side (synchronous
// submit failures, retry exhaustion), so every CompletionFn sees one shape.
BlockCompletion SyntheticCompletion(Status status) {
  BlockCompletion c;
  c.status = std::move(status);
  return c;
}
}  // namespace

Status CatfishLibOS::SubmitToDevice(std::uint64_t cmd_id, const IoCmd& cmd) {
  switch (cmd.kind) {
    case IoKind::kWrite:
      return bdev_->SubmitWrite(cmd_id, cmd.lba, cmd.buf);
    case IoKind::kRead:
      return bdev_->SubmitRead(cmd_id, cmd.lba, 1, cmd.buf);
    case IoKind::kPushdown:
      return bdev_->SubmitPushdown(cmd_id, cmd.lba, cmd.program, cmd.buf);
  }
  return Internal("unknown io kind");
}

std::uint64_t CatfishLibOS::SubmitIo(IoCmd cmd, CompletionFn done, int attempt,
                                     TimeNs started_at) {
  CompletionFn wrapped = std::move(done);
  if (config_.recovery.enabled) {
    std::weak_ptr<bool> alive = alive_;
    CompletionFn inner = std::move(wrapped);
    // Retries resubmit the whole command — for a push-down chain that means the whole
    // chain from the root, never a device-internal step.
    wrapped = [this, alive, cmd, inner, attempt,
               started_at](const BlockCompletion& completion) {
      const Status& status = completion.status;
      if (status.ok() || !TransientDeviceError(status)) {
        inner(completion);
        return;
      }
      const RetryPolicy& policy = config_.recovery.retry;
      const TimeNs deadline = started_at + policy.deadline_ns;
      const int next = attempt + 1;
      if (next >= policy.max_attempts || host_->sim().now() > deadline) {
        host_->Count(Counter::kRetryGiveups);
        host_->sim().metrics().Trace(TraceKind::kRetryGiveup, host_->now(), cmd.lba);
        inner(SyntheticCompletion(RetryExhausted(
            std::string("device retries exhausted: ") + std::string(status.message()))));
        return;
      }
      host_->Count(Counter::kRetriesAttempted);
      host_->sim().metrics().Trace(TraceKind::kRetryAttempt, host_->now(), cmd.lba,
                                   static_cast<std::uint64_t>(next));
      // Clamp the jittered backoff to the remaining deadline budget: a resubmission
      // must never be scheduled past the deadline it is spending.
      const TimeNs remaining = deadline - host_->sim().now();
      const TimeNs delay =
          std::min(policy.BackoffBeforeAttempt(next, retry_rng_), remaining);
      host_->sim().Schedule(delay, [this, alive, cmd, inner, next, started_at,
                                    deadline] {
        if (alive.expired()) {
          return;  // the libOS is gone; drop the resubmission
        }
        // Re-check at fire time: clock skew between scheduling and firing (e.g. other
        // work advancing the simulated clock) must not stretch the budget.
        if (host_->sim().now() > deadline) {
          host_->Count(Counter::kRetryGiveups);
          host_->sim().metrics().Trace(TraceKind::kRetryGiveup, host_->now(), cmd.lba);
          inner(SyntheticCompletion(
              RetryExhausted("device retry deadline passed before resubmission")));
          return;
        }
        (void)SubmitIo(cmd, inner, next, started_at);
      });
    };
  }
  const std::uint64_t cmd_id = next_cmd_++;
  const Status status = SubmitToDevice(cmd_id, cmd);
  if (status.code() == ErrorCode::kResourceExhausted) {
    deferred_.push_back(Deferred{std::move(cmd), std::move(wrapped)});
    return cmd_id;
  }
  if (!status.ok()) {
    wrapped(SyntheticCompletion(status));
    return cmd_id;
  }
  callbacks_[cmd_id] = std::move(wrapped);
  return cmd_id;
}

Result<std::unique_ptr<IoQueue>> CatfishLibOS::NewFileQueue(const std::string& path,
                                                            bool create) {
  auto it = catalog_.find(path);
  if (it == catalog_.end()) {
    if (!create) {
      return NotFound(path);
    }
    FileMeta meta;
    meta.base_lba = next_free_lba_;
    meta.extent_blocks = config_.extent_blocks;
    next_free_lba_ += config_.extent_blocks;
    if (meta.base_lba + meta.extent_blocks > bdev_->num_blocks()) {
      return ResourceExhausted("device full");
    }
    it = catalog_.emplace(path, meta).first;
  }
  return std::unique_ptr<IoQueue>(new CatfishFileQueue(this, &it->second));
}

std::uint64_t CatfishLibOS::SubmitWrite(std::uint64_t lba, Buffer data, CompletionFn done) {
  IoCmd cmd;
  cmd.kind = IoKind::kWrite;
  cmd.lba = lba;
  cmd.buf = std::move(data);
  return SubmitIo(std::move(cmd), std::move(done), /*attempt=*/0, host_->sim().now());
}

std::uint64_t CatfishLibOS::SubmitRead(std::uint64_t lba, Buffer dest, CompletionFn done) {
  IoCmd cmd;
  cmd.kind = IoKind::kRead;
  cmd.lba = lba;
  cmd.buf = std::move(dest);
  return SubmitIo(std::move(cmd), std::move(done), /*attempt=*/0, host_->sim().now());
}

std::uint64_t CatfishLibOS::SubmitPushdown(std::uint64_t lba, PushdownProgramId program,
                                           Buffer arg, CompletionFn done) {
  IoCmd cmd;
  cmd.kind = IoKind::kPushdown;
  cmd.lba = lba;
  cmd.buf = std::move(arg);
  cmd.program = program;
  return SubmitIo(std::move(cmd), std::move(done), /*attempt=*/0, host_->sim().now());
}

Result<CatfishLibOS::FileMeta> CatfishLibOS::StatFile(const std::string& path) const {
  auto it = catalog_.find(path);
  if (it == catalog_.end()) {
    return NotFound(path);
  }
  return it->second;
}

Result<PushdownProgramId> CatfishLibOS::InstallPushdownProgram(const PushdownProgram& prog) {
  return bdev_->InstallProgram(prog);
}

Result<QToken> CatfishLibOS::PushdownRead(QDesc qd, PushdownProgramId program,
                                          std::uint64_t root_block, const SgArray& arg) {
  ChargeCall();
  IoQueue* q = GetQueue(qd);
  if (q == nullptr) {
    return BadDescriptor("pushdown");
  }
  const QToken token = NewToken(qd, OpType::kPop);
  const Status status = q->StartPushdown(token, program, root_block, arg);
  if (!status.ok()) {
    ReleaseFailedToken(token);
    return status;
  }
  return token;
}

bool CatfishLibOS::PollDevice() {
  bool progress = false;
  for (const BlockCompletion& c : bdev_->PollCompletions(64)) {
    auto it = callbacks_.find(c.id);
    if (it != callbacks_.end()) {
      CompletionFn fn = std::move(it->second);
      callbacks_.erase(it);
      fn(c);
      progress = true;
    }
  }
  // Resubmit commands deferred on a full submission queue, oldest first; a command
  // leaves the queue only once the device takes it.
  while (!deferred_.empty()) {
    const std::uint64_t cmd_id = next_cmd_++;
    const Status status = SubmitToDevice(cmd_id, deferred_.front().cmd);
    if (status.code() == ErrorCode::kResourceExhausted) {
      break;
    }
    CompletionFn done = std::move(deferred_.front().done);
    deferred_.pop_front();
    progress = true;
    if (!status.ok()) {
      done(SyntheticCompletion(status));
    } else {
      callbacks_[cmd_id] = std::move(done);
    }
  }
  return progress;
}

// --- CatfishFileQueue ---

CatfishFileQueue::CatfishFileQueue(CatfishLibOS* libos, CatfishLibOS::FileMeta* meta)
    : libos_(libos), meta_(meta), alive_(std::make_shared<bool>(true)) {}

CatfishFileQueue::~CatfishFileQueue() { *alive_ = false; }

std::byte* CatfishFileQueue::WritableBlock(std::uint64_t index) {
  auto [it, inserted] = block_cache_.try_emplace(index);
  Buffer& block = it->second;
  if (inserted) {
    if (index == meta_->used_bytes / kBlock && !meta_->tail.empty()) {
      block = meta_->tail;
    } else {
      block = Buffer::Allocate(kBlock);
      std::memset(block.mutable_data(), 0, kBlock);
    }
  }
  if (block.use_count() > 1) {
    // The device, a deferred or retried write, or the catalog's tail still holds it.
    block = Buffer::CopyOf(block.span());
  }
  return block.mutable_data();
}

bool CatfishFileQueue::BlockResident(std::uint64_t index) const {
  return block_cache_.contains(index);
}

void CatfishFileQueue::FetchBlock(std::uint64_t index) {
  if (fetch_in_flight_.contains(index)) {
    return;
  }
  fetch_in_flight_[index] = true;
  Buffer dest = Buffer::Allocate(kBlock);
  std::weak_ptr<bool> alive = alive_;
  libos_->SubmitRead(meta_->base_lba + index, dest,
                     [this, alive, index, dest](const BlockCompletion& c) {
                       auto locked = alive.lock();
                       if (!locked || !*locked) {
                         return;  // queue closed before the read landed
                       }
                       fetch_in_flight_.erase(index);
                       if (c.status.ok()) {
                         // A push into the block since the read was issued is newer.
                         block_cache_.try_emplace(index, dest);
                       } else {
                         read_error_ = c.status;
                       }
                     });
}

bool CatfishFileQueue::ReadLogBytes(std::uint64_t offset, std::size_t len, std::byte* out) {
  if (len == 0) {
    // Zero-length reads touch no blocks; without this the (offset + len - 1)/kBlock
    // bound below underflows at offset 0 and sweeps the whole extent.
    return true;
  }
  // First pass: ensure residency (kick fetches for every cold block).
  bool all_resident = true;
  for (std::uint64_t index = offset / kBlock; index <= (offset + len - 1) / kBlock;
       ++index) {
    if (!BlockResident(index)) {
      FetchBlock(index);
      all_resident = false;
    }
  }
  if (!all_resident) {
    return false;
  }
  std::size_t at = 0;
  while (at < len) {
    const std::uint64_t pos = offset + at;
    const std::uint64_t index = pos / kBlock;
    const std::size_t in_block = pos % kBlock;
    const std::size_t take = std::min(kBlock - in_block, len - at);
    std::memcpy(out + at, block_cache_[index].data() + in_block, take);
    at += take;
  }
  return true;
}

void CatfishFileQueue::WriteBlockOut(std::uint64_t index, PendingPush* push) {
  ++push->writes_outstanding;
  std::weak_ptr<bool> alive = alive_;
  libos_->SubmitWrite(meta_->base_lba + index, block_cache_.at(index),
                      [alive, push](const BlockCompletion& c) {
                        auto locked = alive.lock();
                        if (!locked || !*locked) {
                          return;
                        }
                        if (!c.status.ok() && push->status.ok()) {
                          push->status = c.status;
                        }
                        --push->writes_outstanding;
                      });
}

Status CatfishFileQueue::StartPush(QToken token, const SgArray& sga) {
  const std::size_t record_len = kRecordHeader + sga.total_bytes();
  if (meta_->used_bytes + record_len > meta_->extent_blocks * kBlock) {
    return ResourceExhausted("file extent full");
  }

  // Serialize the record into the cached tail blocks. The common single-segment push
  // flattens for free (shared storage; only read below); multi-segment records pay —
  // and account — one gather copy.
  if (sga.segment_count() > 1) {
    libos_->host().CopyBytes(sga.total_bytes());
  }
  Buffer payload = sga.Flatten();
  std::byte header[kRecordHeader];
  ByteWriter w(header);
  w.U32(static_cast<std::uint32_t>(payload.size()));
  w.U32(Crc32c(payload.span()));

  const std::uint64_t start = meta_->used_bytes;
  auto write_bytes = [this](std::uint64_t offset, std::span<const std::byte> bytes) {
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::uint64_t pos = offset + at;
      const std::uint64_t index = pos / kBlock;
      const std::size_t in_block = pos % kBlock;
      const std::size_t take = std::min(kBlock - in_block, bytes.size() - at);
      std::memcpy(WritableBlock(index) + in_block, bytes.data() + at, take);
      at += take;
    }
  };
  write_bytes(start, header);
  write_bytes(start + kRecordHeader, payload.span());
  meta_->used_bytes += record_len;
  ++meta_->records;
  meta_->tail = meta_->used_bytes % kBlock != 0
                    ? block_cache_.at(meta_->used_bytes / kBlock)
                    : Buffer();

  // Persist every touched block (the tail block is rewritten in place — the classic
  // small-append pattern of a log on a block device).
  auto push = std::make_unique<PendingPush>();
  push->token = token;
  const std::uint64_t first_block = start / kBlock;
  const std::uint64_t last_block = (start + record_len - 1) / kBlock;
  for (std::uint64_t index = first_block; index <= last_block; ++index) {
    WriteBlockOut(index, push.get());
  }
  push->submitted = true;
  pending_pushes_.push_back(std::move(push));
  return OkStatus();
}

Status CatfishFileQueue::StartPop(QToken token) {
  pending_pops_.push_back(token);
  return OkStatus();
}

Status CatfishFileQueue::StartPushdown(QToken token, PushdownProgramId program,
                                       std::uint64_t root_block, const SgArray& arg) {
  if (root_block >= meta_->extent_blocks) {
    return InvalidArgument("pushdown root outside file extent");
  }
  pending_pushdowns_.push_back(token);
  std::weak_ptr<bool> alive = alive_;
  libos_->SubmitPushdown(
      meta_->base_lba + root_block, program, arg.Flatten(),
      [this, alive, token](const BlockCompletion& c) {
        auto locked = alive.lock();
        if (!locked || !*locked) {
          return;  // queue closed; Close() already failed the token
        }
        std::erase(pending_pushdowns_, token);
        QResult res;
        res.op = OpType::kPop;
        res.status = c.status;
        if (c.status.ok()) {
          res.sga = SgArray(Buffer::CopyOf(c.payload.span()));
        }
        ready_pushdowns_.push_back({token, std::move(res)});
      });
  return OkStatus();
}

bool CatfishFileQueue::Progress(CompletionSink& sink) {
  bool progress = false;

  // Deliver finished push-down chains (one host completion per chain).
  while (!ready_pushdowns_.empty()) {
    auto [token, res] = std::move(ready_pushdowns_.front());
    ready_pushdowns_.pop_front();
    sink.CompleteOp(token, std::move(res));
    progress = true;
  }

  // Complete durable pushes in order.
  while (!pending_pushes_.empty()) {
    PendingPush& push = *pending_pushes_.front();
    if (!push.submitted || push.writes_outstanding > 0) {
      break;
    }
    QResult res;
    res.op = OpType::kPush;
    res.status = push.status;
    sink.CompleteOp(push.token, std::move(res));
    pending_pushes_.pop_front();
    progress = true;
  }

  // A failed fetch means the current record can never be read: fail the waiting pops
  // with the device's status, then clear so later pops may retry (a transient media
  // error on one LBA does not poison the queue forever).
  if (!read_error_.ok() && !pending_pops_.empty()) {
    const Status err = read_error_;
    read_error_ = OkStatus();
    while (!pending_pops_.empty()) {
      QResult res;
      res.op = OpType::kPop;
      res.status = err;
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
    }
  }

  // Replay records for pops.
  while (!pending_pops_.empty()) {
    if (read_offset_ >= meta_->used_bytes) {
      // End of log snapshot: nothing (more) to replay.
      QResult res;
      res.op = OpType::kPop;
      res.status = EndOfFile();
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
      continue;
    }
    std::byte header[kRecordHeader];
    if (!ReadLogBytes(read_offset_, kRecordHeader, header)) {
      break;  // cold blocks; fetches in flight
    }
    ByteReader r(header);
    const std::uint32_t len = r.U32();
    const std::uint32_t crc = r.U32();
    if (read_offset_ + kRecordHeader + len > meta_->used_bytes) {
      QResult res;
      res.op = OpType::kPop;
      res.status = ProtocolError("truncated record");
      sink.CompleteOp(pending_pops_.front(), std::move(res));
      pending_pops_.pop_front();
      progress = true;
      continue;
    }
    Buffer payload = Buffer::Allocate(len);
    if (!ReadLogBytes(read_offset_ + kRecordHeader, len, payload.mutable_data())) {
      break;
    }
    QResult res;
    res.op = OpType::kPop;
    if (Crc32c(payload.span()) != crc) {
      res.status = ProtocolError("record checksum mismatch");
    } else {
      res.sga = SgArray(std::move(payload));
    }
    // Drop the blocks the cursor has now passed entirely: nothing reads them again.
    for (std::uint64_t index = read_offset_ / kBlock;
         index < (read_offset_ + kRecordHeader + len) / kBlock; ++index) {
      block_cache_.erase(index);
    }
    read_offset_ += kRecordHeader + len;
    sink.CompleteOp(pending_pops_.front(), std::move(res));
    pending_pops_.pop_front();
    progress = true;
  }
  return progress;
}

Status CatfishFileQueue::Close() {
  // Kill in-flight device continuations first: the libOS destroys this queue right
  // after Close() returns, so a completion landing later must find *alive_ false.
  *alive_ = false;

  // Deliver push-down results that already finished on the device; LibOS::Close
  // cancels every token still outstanding.
  while (!ready_pushdowns_.empty()) {
    auto [token, res] = std::move(ready_pushdowns_.front());
    ready_pushdowns_.pop_front();
    libos_->CompleteOp(token, std::move(res));
  }
  return OkStatus();
}

}  // namespace demi
