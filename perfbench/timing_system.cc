#include "timing_system.h"

#include <cstdio>

namespace perfbench {

const char* CallName(Call call) {
  switch (call) {
    case Call::kApplyAction: return "ApplyAction";
    case Call::kAbstractHash: return "AbstractHash";
    case Call::kSaveConcrete: return "SaveConcrete";
    case Call::kRestoreConcrete: return "RestoreConcrete";
    case Call::kDiscardConcrete: return "DiscardConcrete";
    case Call::kCrashCheck: return "CrashCheck";
    case Call::kActionCount: return "ActionCount";
    case Call::kActionName: return "ActionName";
    case Call::kViolationDetected: return "violation_detected";
    case Call::kViolationReport: return "violation_report";
    case Call::kConcreteStateBytes: return "ConcreteStateBytes";
    case Call::kStaticActionFootprint: return "StaticActionFootprint";
  }
  return "?";
}

TimingSystem::TimingSystem(mcfs::mc::System& inner,
                           std::function<void()> after_snapshot_call)
    : inner_(inner),
      after_snapshot_call_(std::move(after_snapshot_call)),
      origin_(Clock::now()) {}

std::int64_t TimingSystem::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void TimingSystem::Record(Call call, std::uint64_t arg, std::int64_t start,
                          std::int64_t end, bool keep) const {
  CallTotals& t = totals_[static_cast<std::size_t>(call)];
  ++t.calls;
  t.ns += end - start;
  if (keep) spans_.push_back(Span{call, arg, start, end});
}

std::int64_t TimingSystem::wrapped_ns() const {
  std::int64_t sum = 0;
  for (const CallTotals& t : totals_) sum += t.ns;
  return sum;
}

std::size_t TimingSystem::ActionCount() const {
  const std::int64_t start = Now();
  const std::size_t n = inner_.ActionCount();
  Record(Call::kActionCount, 0, start, Now(), false);
  return n;
}

std::string TimingSystem::ActionName(std::size_t action) const {
  const std::int64_t start = Now();
  std::string name = inner_.ActionName(action);
  Record(Call::kActionName, action, start, Now(), false);
  return name;
}

mcfs::Status TimingSystem::ApplyAction(std::size_t action) {
  const std::int64_t start = Now();
  const mcfs::Status s = inner_.ApplyAction(action);
  Record(Call::kApplyAction, action, start, Now(), true);
  if (!s.ok()) ++infra_errors_;
  return s;
}

bool TimingSystem::violation_detected() const {
  const std::int64_t start = Now();
  const bool v = inner_.violation_detected();
  Record(Call::kViolationDetected, 0, start, Now(), false);
  return v;
}

std::string TimingSystem::violation_report() const {
  const std::int64_t start = Now();
  std::string report = inner_.violation_report();
  Record(Call::kViolationReport, 0, start, Now(), false);
  return report;
}

mcfs::Md5Digest TimingSystem::AbstractHash() {
  const std::int64_t start = Now();
  const mcfs::Md5Digest digest = inner_.AbstractHash();
  Record(Call::kAbstractHash, 0, start, Now(), true);
  return digest;
}

mcfs::Result<mcfs::mc::SnapshotId> TimingSystem::SaveConcrete() {
  const std::int64_t start = Now();
  auto id = inner_.SaveConcrete();
  Record(Call::kSaveConcrete, id.ok() ? id.value() : 0, start, Now(), true);
  if (!id.ok()) ++infra_errors_;
  if (after_snapshot_call_) after_snapshot_call_();
  return id;
}

mcfs::Status TimingSystem::RestoreConcrete(mcfs::mc::SnapshotId id) {
  const std::int64_t start = Now();
  const mcfs::Status s = inner_.RestoreConcrete(id);
  Record(Call::kRestoreConcrete, id, start, Now(), true);
  if (!s.ok()) ++infra_errors_;
  return s;
}

mcfs::Status TimingSystem::DiscardConcrete(mcfs::mc::SnapshotId id) {
  const std::int64_t start = Now();
  const mcfs::Status s = inner_.DiscardConcrete(id);
  Record(Call::kDiscardConcrete, id, start, Now(), true);
  if (!s.ok()) ++infra_errors_;
  if (after_snapshot_call_) after_snapshot_call_();
  return s;
}

std::uint64_t TimingSystem::ConcreteStateBytes() const {
  const std::int64_t start = Now();
  const std::uint64_t bytes = inner_.ConcreteStateBytes();
  Record(Call::kConcreteStateBytes, 0, start, Now(), false);
  return bytes;
}

mcfs::Status TimingSystem::CrashCheck() {
  const std::int64_t start = Now();
  const mcfs::Status s = inner_.CrashCheck();
  Record(Call::kCrashCheck, 0, start, Now(), true);
  if (!s.ok()) ++infra_errors_;
  return s;
}

mcfs::mc::ActionFootprint TimingSystem::StaticActionFootprint(
    std::size_t action) const {
  const std::int64_t start = Now();
  mcfs::mc::ActionFootprint fp = inner_.StaticActionFootprint(action);
  Record(Call::kStaticActionFootprint, action, start, Now(), false);
  return fp;
}

bool TimingSystem::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
                 first ? "" : ",", CallName(s.call),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.arg));
    first = false;
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
  const bool write_ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && write_ok;
}

}  // namespace perfbench
