#include "log/log_manager.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/errno_util.h"
#include "log/log_sink.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace finelog {

namespace {
// Durability tail of every force point: through the configured sink, or the
// historical fflush-only behavior when no sink is wired.
Status SyncThrough(LogSink* sink, std::FILE* file, const std::string& site) {
  if (sink != nullptr) return sink->Sync(file, site);
  std::fflush(file);
  return Status::OK();
}

// The page a record is indexed under for ScanPage, or null for records that
// touch no page's history (commits, checkpoints, replacements, ...).
const PageId* TouchedPage(const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kUpdate:
    case LogRecordType::kClr:
      return &rec.page;
    case LogRecordType::kCallback:
      return &rec.cb_object.page;
    default:
      return nullptr;
  }
}
}  // namespace

LogManager::~LogManager() {
  SimMutexLock lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<LogManager>> LogManager::Open(const std::string& path,
                                                     uint64_t capacity_bytes,
                                                     const LogIoOptions& io) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  bool fresh = false;
  if (f == nullptr) {
    f = std::fopen(path.c_str(), "w+b");
    fresh = true;
  }
  if (f == nullptr) {
    return Status::IoError("open " + path + ": " + ErrnoString(errno));
  }
  auto lm = std::unique_ptr<LogManager>(new LogManager(f, capacity_bytes, io));
  // Nothing else can reference `lm` yet; locking satisfies the REQUIRES
  // contracts of the recovery helpers below.
  SimMutexLock lock(lm->mu_);
  if (fresh) {
    FINELOG_RETURN_IF_ERROR(lm->WriteHeader());
  } else {
    FINELOG_RETURN_IF_ERROR(lm->RecoverExisting());
  }
  return lm;
}

Status LogManager::WriteHeader() {
  if (io_.injector != nullptr) {
    // The 32-byte header fits one sector; model it as atomic (torn arms
    // degrade to a clean EIO with the old header intact).
    auto out = io_.injector->Evaluate(io_.name + ".header", kFileHeaderSize,
                                      /*allow_torn=*/false);
    if (out.action != FaultAction::kNone) {
      return Status::IoError("injected fault: " + io_.name + ".header");
    }
  }
  Encoder enc;
  enc.PutU32(kMagic);
  enc.PutU32(1);  // version
  enc.PutId(checkpoint_lsn_);
  enc.PutId(reclaim_lsn_);
  enc.PutU64(0);  // Reserved.
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fwrite(enc.buffer().data(), 1, kFileHeaderSize, file_) !=
          kFileHeaderSize) {
    return Status::IoError("log header write failed");
  }
  return SyncThrough(io_.sink, file_, io_.name + ".header");
}

Status LogManager::RecoverExisting() {
  // Read the header.
  char hdr[kFileHeaderSize];
  if (std::fseek(file_, 0, SEEK_SET) != 0 ||
      std::fread(hdr, 1, kFileHeaderSize, file_) != kFileHeaderSize) {
    // Empty or truncated file: treat as fresh.
    return WriteHeader();
  }
  Decoder dec(Slice(hdr, kFileHeaderSize));
  uint32_t magic = 0, version = 0;
  Lsn ckpt, reclaim;
  if (!dec.GetU32(&magic) || magic != kMagic || !dec.GetU32(&version) ||
      !dec.GetId(&ckpt) || !dec.GetId(&reclaim)) {
    return Status::Corruption("bad log file header");
  }
  checkpoint_lsn_ = ckpt;
  reclaim_lsn_ = reclaim;

  // Scan frames to find the durable end; stop at the first torn frame.
  struct stat st;
  if (fstat(fileno(file_), &st) != 0) {
    return Status::IoError("fstat failed");
  }
  uint64_t file_size = static_cast<uint64_t>(st.st_size);
  Lsn pos{kFileHeaderSize};
  std::string body;
  if (io_.debug_trust_tail) {
    // Broken-on-purpose recovery (harness self-test): believe every byte in
    // the file is a durable record, skipping the CRC scan for the true tail.
    durable_end_ = Lsn{std::max<uint64_t>(file_size, kFileHeaderSize)};
    end_lsn_ = durable_end_;
    return Status::OK();
  }
  while (pos.value() + kFrameHeaderSize <= file_size) {
    char fh[kFrameHeaderSize];
    if (std::fseek(file_, static_cast<long>(pos.value()), SEEK_SET) != 0 ||
        std::fread(fh, 1, kFrameHeaderSize, file_) != kFrameHeaderSize) {
      break;
    }
    Decoder fdec(Slice(fh, kFrameHeaderSize));
    uint32_t len = 0, crc = 0;
    fdec.GetU32(&len);
    fdec.GetU32(&crc);
    if (len == 0 || pos.value() + kFrameHeaderSize + len > file_size) break;
    body.resize(len);
    if (std::fread(body.data(), 1, len, file_) != len) break;
    if (Crc32c(body.data(), body.size()) != crc) break;
    pos += kFrameHeaderSize + len;
  }
  durable_end_ = pos;
  end_lsn_ = pos;
  return Status::OK();
}

Result<Lsn> LogManager::Append(const LogRecord& record,
                               bool enforce_capacity) {
  SimMutexLock lock(mu_);
  // Serialize into the reused scratch buffer: after warm-up, appends perform
  // no allocation beyond pending-tail growth, which reserve() below keeps to
  // one extension per frame at most.
  encode_buf_.clear();
  record.EncodeTo(&encode_buf_);
  const std::string& body = encode_buf_;
  uint64_t frame_size = kFrameHeaderSize + body.size();
  if (enforce_capacity && capacity_ > 0 &&
      used_bytes() + frame_size > capacity_) {
    return Status::LogFull("private log out of space");
  }
  if (io_.injector != nullptr) {
    // Appends only buffer in memory; nothing can tear, so the point models
    // a clean allocation/EIO failure before the record exists anywhere.
    auto out = io_.injector->Evaluate(io_.name + ".append", frame_size,
                                      /*allow_torn=*/false);
    if (out.action != FaultAction::kNone) {
      return Status::IoError("injected fault: " + io_.name + ".append");
    }
  }
  Lsn lsn = end_lsn_;
  pending_.reserve(pending_.size() + frame_size);
  Encoder enc(&pending_);
  enc.PutU32(static_cast<uint32_t>(body.size()));
  enc.PutU32(Crc32c(body.data(), body.size()));
  enc.PutRaw(body);
  if (pending_.size() > pending_high_water_) {
    pending_high_water_ = pending_.size();
  }
  end_lsn_ += frame_size;
  bytes_appended_ += frame_size;
  return lsn;
}

Status LogManager::Force() {
  SimMutexLock lock(mu_);
  ++force_count_;
  if (pending_.empty()) return Status::OK();
  if (io_.injector != nullptr) {
    auto out = io_.injector->Evaluate(io_.name + ".force", pending_.size());
    switch (out.action) {
      case FaultAction::kNone:
        break;
      case FaultAction::kError:
        return Status::IoError("injected fault: " + io_.name + ".force");
      case FaultAction::kTornWrite:
      case FaultAction::kShortWrite: {
        // A prefix of the pending frames reaches the disk -- possibly ending
        // mid-frame -- and the force reports failure. durable_end_ and
        // pending_ are left untouched: a retried Force() rewrites the whole
        // buffer from durable_end_, and a crash + reopen must CRC-scan to
        // find the last complete frame.
        if (std::fseek(file_, static_cast<long>(durable_end_.value()), SEEK_SET) == 0) {
          std::fwrite(pending_.data(), 1, out.cut, file_);
          std::fflush(file_);
        }
        return Status::IoError("injected " +
                               std::string(FaultActionName(out.action)) + ": " +
                               io_.name + ".force");
      }
    }
  }
  if (std::fseek(file_, static_cast<long>(durable_end_.value()), SEEK_SET) != 0 ||
      std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
          pending_.size()) {
    return Status::IoError("log force failed");
  }
  FINELOG_RETURN_IF_ERROR(SyncThrough(io_.sink, file_, io_.name + ".force"));
  durable_end_ += pending_.size();
  pending_.clear();
  return Status::OK();
}

Result<LogRecord> LogManager::Read(Lsn lsn) const {
  SimMutexLock lock(mu_);
  return ReadFrame(lsn, nullptr);
}

Result<LogRecord> LogManager::ReadFrame(Lsn lsn, uint64_t* frame_size) const {
  if (lsn.value() < kFileHeaderSize || lsn >= end_lsn_) {
    return Status::NotFound("LSN out of range");
  }
  ++frames_read_;
  char fh[kFrameHeaderSize];
  std::string body;
  if (lsn >= durable_end_) {
    // Still buffered.
    size_t off = lsn - durable_end_;
    if (off + kFrameHeaderSize > pending_.size()) {
      return Status::Corruption("buffered LSN does not address a frame");
    }
    std::memcpy(fh, pending_.data() + off, kFrameHeaderSize);
    Decoder fdec(Slice(fh, kFrameHeaderSize));
    uint32_t len = 0, crc = 0;
    fdec.GetU32(&len);
    fdec.GetU32(&crc);
    if (off + kFrameHeaderSize + len > pending_.size()) {
      return Status::Corruption("buffered frame truncated");
    }
    body.assign(pending_.data() + off + kFrameHeaderSize, len);
  } else {
    if (std::fseek(file_, static_cast<long>(lsn.value()), SEEK_SET) != 0 ||
        std::fread(fh, 1, kFrameHeaderSize, file_) != kFrameHeaderSize) {
      return Status::IoError("frame header read failed");
    }
    Decoder fdec(Slice(fh, kFrameHeaderSize));
    uint32_t len = 0, crc = 0;
    fdec.GetU32(&len);
    fdec.GetU32(&crc);
    body.resize(len);
    if (std::fread(body.data(), 1, len, file_) != len) {
      return Status::IoError("frame body read failed");
    }
    if (Crc32c(body.data(), body.size()) != crc) {
      return Status::Corruption("frame checksum mismatch");
    }
  }
  auto rec = LogRecord::Decode(body);
  if (!rec.ok()) return rec.status();
  rec.value().lsn = lsn;
  if (frame_size != nullptr) *frame_size = kFrameHeaderSize + body.size();
  return rec;
}

Status LogManager::Scan(
    Lsn from, const std::function<Status(const LogRecord&)>& cb) const {
  SimMutexLock lock(mu_);
  Lsn pos = std::max(from, Lsn{kFileHeaderSize});
  while (pos < end_lsn_) {
    uint64_t frame_size = 0;
    auto rec = ReadFrame(pos, &frame_size);
    if (!rec.ok()) return rec.status();
    FINELOG_RETURN_IF_ERROR(cb(rec.value()));
    pos += frame_size;
  }
  return Status::OK();
}

Status LogManager::ScanPage(
    PageId pid, Lsn from, const std::function<Status(const LogRecord&)>& cb) {
  SimMutexLock lock(mu_);
  while (indexed_to_ < end_lsn_) {
    uint64_t frame_size = 0;
    auto rec = ReadFrame(indexed_to_, &frame_size);
    if (!rec.ok()) return rec.status();
    if (const PageId* page = TouchedPage(rec.value())) {
      page_index_[*page].push_back(indexed_to_);
    }
    indexed_to_ += frame_size;
  }
  auto it = page_index_.find(pid);
  if (it == page_index_.end()) return Status::OK();
  const std::vector<Lsn>& lsns = it->second;
  for (auto l = std::lower_bound(lsns.begin(), lsns.end(), from);
       l != lsns.end(); ++l) {
    auto rec = ReadFrame(*l, nullptr);
    if (!rec.ok()) return rec.status();
    FINELOG_RETURN_IF_ERROR(cb(rec.value()));
  }
  return Status::OK();
}

Status LogManager::SetCheckpointLsn(Lsn lsn) {
  SimMutexLock lock(mu_);
  checkpoint_lsn_ = lsn;
  return WriteHeader();
}

void LogManager::SetReclaimLsn(Lsn lsn) {
  SimMutexLock lock(mu_);
  if (lsn > reclaim_lsn_) reclaim_lsn_ = lsn;
}

}  // namespace finelog
