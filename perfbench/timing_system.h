// A timing mc::System wrapper: forwards every virtual call to the wrapped
// System and times it with std::chrono::steady_clock, so per-layer time
// is measured from outside the program. Calls at a layer boundary
// (ApplyAction, AbstractHash, the concrete-state calls, CrashCheck) are
// kept as spans in memory; the cheap accessors the explorer calls in its
// inner loops (ActionCount, ActionName, the violation accessors,
// StaticActionFootprint, ConcreteStateBytes) are only summed, since one
// span per call would outweigh the calls themselves.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mc/state.h"

namespace perfbench {

enum class Call : std::uint8_t {
  kApplyAction,
  kAbstractHash,
  kSaveConcrete,
  kRestoreConcrete,
  kDiscardConcrete,
  kCrashCheck,
  kActionCount,
  kActionName,
  kViolationDetected,
  kViolationReport,
  kConcreteStateBytes,
  kStaticActionFootprint,
};
inline constexpr std::size_t kCallKinds = 12;

const char* CallName(Call call);

struct Span {
  Call call;
  // Action index for ApplyAction, snapshot id for the concrete-state
  // calls, 0 otherwise.
  std::uint64_t arg = 0;
  std::int64_t start_ns = 0;  // since the wrapper was built
  std::int64_t end_ns = 0;
};

struct CallTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
};

class TimingSystem final : public mcfs::mc::System {
 public:
  // `inner` must outlive the wrapper. `after_snapshot_call`, when set,
  // runs after every SaveConcrete/DiscardConcrete, outside the timed
  // interval (the benchmark samples snapshot-pool gauges there).
  explicit TimingSystem(mcfs::mc::System& inner,
                        std::function<void()> after_snapshot_call = {});

  std::size_t ActionCount() const override;
  std::string ActionName(std::size_t action) const override;
  mcfs::Status ApplyAction(std::size_t action) override;
  bool violation_detected() const override;
  std::string violation_report() const override;
  mcfs::Md5Digest AbstractHash() override;
  mcfs::Result<mcfs::mc::SnapshotId> SaveConcrete() override;
  mcfs::Status RestoreConcrete(mcfs::mc::SnapshotId id) override;
  mcfs::Status DiscardConcrete(mcfs::mc::SnapshotId id) override;
  std::uint64_t ConcreteStateBytes() const override;
  mcfs::Status CrashCheck() override;
  mcfs::mc::ActionFootprint StaticActionFootprint(
      std::size_t action) const override;

  const std::vector<Span>& spans() const { return spans_; }
  const CallTotals& totals(Call call) const {
    return totals_[static_cast<std::size_t>(call)];
  }
  // Time spent inside every wrapped call, of every kind.
  std::int64_t wrapped_ns() const;
  // Calls that returned an error status: checker-infrastructure failures.
  std::uint64_t infra_errors() const { return infra_errors_; }

  // Writes the spans as Chrome trace-event JSON (complete "X" events,
  // microsecond timestamps), viewable in Perfetto or chrome://tracing.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  std::int64_t Now() const;
  // Adds one finished call to the totals, and to the spans when `keep`.
  void Record(Call call, std::uint64_t arg, std::int64_t start,
              std::int64_t end, bool keep) const;

  mcfs::mc::System& inner_;
  std::function<void()> after_snapshot_call_;
  Clock::time_point origin_;
  // Mutable: the const accessors of mc::System are timed too.
  mutable std::vector<Span> spans_;
  mutable std::array<CallTotals, kCallKinds> totals_{};
  std::uint64_t infra_errors_ = 0;
};

}  // namespace perfbench
