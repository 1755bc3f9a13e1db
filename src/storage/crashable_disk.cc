#include "storage/crashable_disk.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/md5.h"
#include "util/rng.h"

namespace mcfs::storage {

std::string CrashState::Describe() const {
  std::string out = "applied " + std::to_string(applied.size()) + "/" +
                    std::to_string(pending_total) + " in-flight writes {";
  for (std::size_t i = 0; i < applied.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(applied[i]);
  }
  out += "}";
  return out;
}

CrashableDisk::CrashableDisk(BlockDevicePtr inner)
    : inner_(std::move(inner)), durable_(inner_->Capture()) {}

CrashableDisk::~CrashableDisk() {
  if (mtd_ != nullptr) mtd_->set_write_observer(nullptr);
}

void CrashableDisk::AttachMtd(std::shared_ptr<MtdDevice> mtd) {
  mtd_ = std::move(mtd);
  mtd_->set_write_observer(this);
}

Status CrashableDisk::Write(std::uint64_t offset, ByteView data) {
  Status s = inner_->Write(offset, data);
  if (!s.ok()) return s;
  // With an MTD attached the observer hook already saw the raw programs
  // this shim write decomposed into; recording here would double-count.
  if (mtd_ == nullptr) RecordWrite(offset, data);
  return Status::Ok();
}

Status CrashableDisk::Flush() {
  // MTD stack: the barrier arrives via OnMtdBarrier (the shim's Flush
  // forwards to MtdDevice::Flush, which calls the observer). Committing
  // here too would commit twice per barrier.
  if (mtd_ != nullptr) return inner_->Flush();
  if (injected_flush_errors_ > 0) {
    --injected_flush_errors_;
    return Errno::kEIO;
  }
  if (Status s = inner_->Flush(); !s.ok()) return s;
  CommitBarrier();
  return Status::Ok();
}

void CrashableDisk::OnMtdWrite(std::uint64_t offset, ByteView after) {
  RecordWrite(offset, after);
}

Status CrashableDisk::OnMtdBarrier() {
  if (injected_flush_errors_ > 0) {
    --injected_flush_errors_;
    return Errno::kEIO;
  }
  CommitBarrier();
  return Status::Ok();
}

void CrashableDisk::RecordWrite(std::uint64_t offset, ByteView after) {
  WriteRecord rec;
  rec.offset = offset;
  rec.after.assign(after.begin(), after.end());
  journal_.push_back(std::move(rec));
}

void CrashableDisk::CommitBarrier() {
  for (const WriteRecord& rec : journal_) durable_.Write(rec.offset, rec.after);
  journal_.clear();
  ++barriers_;
}

void CrashableDisk::MarkClean() {
  if (journal_.empty()) return;
  CommitBarrier();
}

DeviceImage CrashableDisk::Overlay(
    const std::vector<std::size_t>& applied) const {
  DeviceImage image = durable_;
  for (std::size_t idx : applied) {
    image.Write(journal_[idx].offset, journal_[idx].after);
  }
  return image;
}

std::vector<CrashState> CrashableDisk::EnumerateCrashStates(
    const CrashStateOptions& options) const {
  const std::size_t n = journal_.size();
  const std::size_t cap = std::max<std::size_t>(options.max_states, 2);

  std::vector<std::vector<std::size_t>> subsets;
  auto prefix = [](std::size_t k) {
    std::vector<std::size_t> s(k);
    for (std::size_t i = 0; i < k; ++i) s[i] = i;
    return s;
  };
  auto from_mask = [n](std::uint64_t mask) {
    std::vector<std::size_t> s;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) s.push_back(i);
    }
    return s;
  };

  if (options.barrier_model == BarrierModel::kOrdered) {
    if (n + 1 <= cap) {
      for (std::size_t k = 0; k <= n; ++k) subsets.push_back(prefix(k));
    } else {
      // Always the two endpoints, then a seeded spread of interior cuts.
      std::set<std::size_t> lens = {0, n};
      Rng rng(options.seed);
      while (lens.size() < cap) lens.insert(1 + rng.Below(n - 1));
      for (std::size_t k : lens) subsets.push_back(prefix(k));
    }
  } else {
    const bool exhaustive =
        n < 64 && (std::uint64_t{1} << n) <= static_cast<std::uint64_t>(cap);
    if (exhaustive) {
      for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
        subsets.push_back(from_mask(mask));
      }
    } else {
      std::set<std::uint64_t> masks;
      masks.insert(0);
      masks.insert(n >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1);
      Rng rng(options.seed);
      // Attempt cap: drawing duplicates forever must not hang enumeration.
      for (std::size_t attempt = 0; attempt < cap * 8 && masks.size() < cap;
           ++attempt) {
        std::uint64_t mask = rng.Next();
        if (n < 64) mask &= (std::uint64_t{1} << n) - 1;
        masks.insert(mask);
      }
      for (std::uint64_t mask : masks) subsets.push_back(from_mask(mask));
    }
  }

  std::vector<CrashState> states;
  std::set<std::uint64_t> seen;  // dedup identical images
  for (const auto& subset : subsets) {
    CrashState state;
    state.image = Overlay(subset);
    if (!seen.insert(state.image.Digest().lo64()).second) continue;
    state.applied = subset;
    state.pending_total = n;
    states.push_back(std::move(state));
  }
  return states;
}

std::uint64_t CrashableDisk::StateDigest() const {
  Md5 md5;
  md5.UpdateU64(durable_.Digest().lo64());
  md5.UpdateU64(barriers_);
  md5.UpdateU64(journal_.size());
  for (const WriteRecord& rec : journal_) {
    md5.UpdateU64(rec.offset);
    md5.Update(ByteView(rec.after.data(), rec.after.size()));
  }
  return md5.Final().lo64();
}

DeviceImage CrashableDisk::Capture() const {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->durable = durable_;
  snapshot->journal = journal_;
  snapshot->barriers = barriers_;
  DeviceImage live = durable_;
  for (const WriteRecord& rec : journal_) live.Write(rec.offset, rec.after);
  live.set_annex(std::move(snapshot));
  return live;
}

Status CrashableDisk::Restore(const DeviceImage& image) {
  const auto* snapshot = dynamic_cast<const Snapshot*>(image.annex().get());
  if (snapshot == nullptr || image.size_bytes() != size_bytes()) {
    return Errno::kEINVAL;
  }
  if (Status s = inner_->Restore(image); !s.ok()) return s;
  durable_ = snapshot->durable;
  journal_ = snapshot->journal;
  barriers_ = snapshot->barriers;
  return Status::Ok();
}

}  // namespace mcfs::storage
